package runner

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// hold asks Ahead for a helper that waits until the returned release
// and reports whether it was granted.
func hold() (granted bool, release func()) {
	var held sync.Mutex
	held.Lock()
	before := busy.Load()
	release = Ahead(func() { held.Lock() }, held.Unlock)
	return busy.Load() > before, release
}

// TestAheadGate: Ahead grants a helper only while fewer than
// GOMAXPROCS-1 goroutines run pool jobs or helpers, none at GOMAXPROCS
// 1, and a released helper frees its processor.
func TestAheadGate(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if granted, release := hold(); granted {
		release()
		t.Fatal("a helper granted at GOMAXPROCS 1")
	}

	// Serial callers: GOMAXPROCS-1 helpers, then none.
	runtime.GOMAXPROCS(4)
	var releases []func()
	for i := 0; ; i++ {
		granted, release := hold()
		if !granted {
			if i != 3 {
				t.Fatalf("%d helpers granted at GOMAXPROCS 4, want 3", i)
			}
			break
		}
		releases = append(releases, release)
	}
	for _, release := range releases {
		release()
	}
	if n := busy.Load(); n != 0 {
		t.Fatalf("%d processors still taken after every helper returned", n)
	}

	// Pool jobs: once all of them run, every job asks for helpers until
	// one is refused, and holds what it got until every job has asked.
	for _, c := range []struct{ procs, workers, want int }{
		{2, 1, 0}, // a serial pool's inline job counts too
		{2, 2, 0}, // Table 1's pool at the reference box's two cores
		{4, 1, 2},
		{4, 2, 1},
		{4, 3, 0},
	} {
		runtime.GOMAXPROCS(c.procs)
		var running, asked sync.WaitGroup
		running.Add(c.workers)
		asked.Add(c.workers)
		var grants atomic.Int32
		_, err := Map(context.Background(), Pool{Workers: c.workers}, make([]int, c.workers),
			func(context.Context, int, int) (int, error) {
				running.Done()
				running.Wait()
				for {
					granted, release := hold()
					if !granted {
						break
					}
					defer release()
					grants.Add(1)
				}
				asked.Done()
				asked.Wait()
				return 0, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if n := int(grants.Load()); n != c.want {
			t.Errorf("GOMAXPROCS %d, %d workers: %d helpers granted, want %d", c.procs, c.workers, n, c.want)
		}
		if n := busy.Load(); n != 0 {
			t.Errorf("GOMAXPROCS %d, %d workers: %d processors still taken after the pool returned", c.procs, c.workers, n)
		}
	}
}

// TestAheadPanicsOnCaller: done stops the helper, waits for it and
// raises its panic on the caller's goroutine, with the processor freed.
func TestAheadPanicsOnCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var held sync.Mutex
	held.Lock()
	done := Ahead(func() {
		held.Lock()
		panic("helper")
	}, held.Unlock)
	defer func() {
		if v := recover(); v != "helper" {
			t.Errorf("done panicked with %v, want the helper's panic", v)
		}
		if n := busy.Load(); n != 0 {
			t.Errorf("%d processors taken after done", n)
		}
	}()
	done()
	t.Error("done returned without the helper's panic")
}
