package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// busy counts the goroutines running pool jobs or Ahead helpers. It is
// package-level because the processors it accounts for are the
// process's: every pool and every helper draws on the same ones.
var busy atomic.Int32

// Ahead runs work on a helper goroutine beside its caller when a
// processor is spare: while fewer than GOMAXPROCS-1 goroutines run pool
// jobs or helpers, the one processor not counted being the caller's.
// So the jobs of a parallel pool, which already keep the processors
// busy, start none, a serial caller gets one, and at GOMAXPROCS 1 no
// caller does. A helper that fought the pool's jobs for the processors
// would slow the pool by more than it saves.
//
// The caller defers the returned done. It calls stop, which must make
// work return, waits until work has returned and frees the processor,
// so no helper outlives the call that started it, whatever way that
// call ends. A panic in work is recovered on the helper's goroutine and
// done raises it again on the caller's. Without a spare processor work
// never runs and done does nothing, so whether a helper ran must never
// change what the caller computes.
func Ahead(work, stop func()) (done func()) {
	if !grant() {
		return func() {}
	}
	var (
		wg sync.WaitGroup
		p  any
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { p = recover() }()
		work()
	}()
	return func() {
		stop()
		wg.Wait()
		busy.Add(-1)
		if p != nil {
			panic(p)
		}
	}
}

// grant takes a spare processor for a helper and reports whether there
// was one.
func grant() bool {
	limit := int32(runtime.GOMAXPROCS(0) - 1)
	for {
		n := busy.Load()
		if n >= limit {
			return false
		}
		if busy.CompareAndSwap(n, n+1) {
			return true
		}
	}
}
