package cmp

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"molcache/internal/engine"
	"molcache/internal/runner"
	"molcache/internal/trace"
	"molcache/internal/workload"
)

// atTwoProcs runs the test at GOMAXPROCS 2, where runner.Ahead has one
// spare processor to grant (none while another package's pool jobs hold
// it, which the tests of this package never start).
func atTwoProcs(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// holdSpare takes the spare processor with a helper that waits until
// the returned release, so that Runs meanwhile start none.
func holdSpare() (release func()) {
	var held sync.Mutex
	held.Lock()
	return runner.Ahead(func() { held.Lock() }, held.Unlock)
}

// spareFree reports whether runner.Ahead grants a helper now.
func spareFree() bool {
	ran := false
	runner.Ahead(func() { ran = true }, func() {})()
	return ran
}

// coreClocks is each core's timing after a Run: the cycle its next
// pending reference issues at and the L1 hits pending before its next
// miss. With the references each core issued, which the capture and the
// L2 ledger fix, they give every core's CPI.
func coreClocks(s *System) [][2]uint64 {
	out := make([][2]uint64, len(s.cores))
	for i := range s.cores {
		out[i] = [2]uint64{s.cores[i].ready, s.cores[i].hits}
	}
	return out
}

// TestRunAheadIdentity: a helper that fills stage-1 chunks ahead of the
// merge changes nothing a Run computes. Each System runs twice, once
// with the spare processor held, so the merge fills every chunk itself,
// and once with it free, where the helper must fill some; the capture,
// the L2 ledger and every core's clock must be identical. The Runs end
// mid-chunk (1, 17, 4,097 and 300,000 references), over twelve and
// sixteen cores and TestCaptureEncodingEdges's cores and Run lengths.
func TestRunAheadIdentity(t *testing.T) {
	atTwoProcs(t)
	splits := []int{1, 17, 4097, 300_000}
	mix := func(names []string) func(t *testing.T, l2 engine.Cache) *System {
		return func(t *testing.T, l2 engine.Cache) *System {
			s := New(l2, Config{CaptureL1Misses: true})
			if err := s.AddMix(names, 2006); err != nil {
				t.Fatal(err)
			}
			return s
		}
	}
	cases := []struct {
		name   string
		system func(t *testing.T, l2 engine.Cache) *System
		runs   []int
	}{
		{"12apps", mix(workload.MixedNames), splits},
		{"16apps", mix(append(workload.Names(), "art")), splits},
		{"encoding-edges", func(t *testing.T, l2 engine.Cache) *System { return edgeSystem(t, l2) }, edgeRuns},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// runAll issues c.runs on a new System and returns it with
			// its capture and ledger.
			runAll := func() (*System, systemRun) {
				l2 := sharedL2()
				s := c.system(t, l2)
				for _, n := range c.runs {
					run(t, s, n)
				}
				return s, systemRun{s.Captured(), l2.Ledger()}
			}
			release := holdSpare()
			alone, want := runAll()
			release()
			if alone.helped != 0 {
				t.Fatalf("with the spare processor held, a helper filled %d chunks", alone.helped)
			}
			helped, got := runAll()
			if helped.helped == 0 {
				t.Fatal("with the spare processor free, the helper filled no chunk")
			}
			t.Logf("the helper filled %d of %d chunks", helped.helped, helped.taken)
			if err := diffRuns(want, got); err != nil {
				t.Fatal(err)
			}
			if a, h := coreClocks(alone), coreClocks(helped); fmt.Sprint(a) != fmt.Sprint(h) {
				t.Fatalf("core clocks %v without a helper, %v with one", a, h)
			}
		})
	}
}

// TestRunAheadCores: a Run of fewer than aheadCores cores starts no
// helper, even with the spare processor free, and one of aheadCores
// cores does.
func TestRunAheadCores(t *testing.T) {
	atTwoProcs(t)
	for n := 1; n <= aheadCores; n++ {
		s := New(sharedL2(), Config{})
		if err := s.AddMix(workload.MixedNames[:n], 2006); err != nil {
			t.Fatal(err)
		}
		run(t, s, 300_000)
		if (s.helped > 0) != (n >= aheadCores) {
			t.Errorf("%d cores: the helper filled %d chunks", n, s.helped)
		}
	}
}

// settled waits until the goroutine count is back at want: a helper's
// last instructions after it signals Run's join may still be running
// as Run returns, so it gets a moment to exit, as leak checkers allow.
func settled(t *testing.T, want int) {
	t.Helper()
	for range 1000 {
		if runtime.NumGoroutine() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%d goroutines after Run, %d before it", runtime.NumGoroutine(), want)
}

// panicGen is a generator that panics at its n-th reference.
type panicGen struct {
	workload.Generator
	n int
}

func (g *panicGen) Next() workload.Access {
	if g.n--; g.n == 0 {
		panic("panicGen")
	}
	return g.Generator.Next()
}

// TestRunAheadGoroutines: no goroutine outlives Run, and the spare
// processor is free again when it returns, however it ends: normally,
// with a *WindowError, with a panic in OnL2Access, which the runner's
// pool turns into its job's *PanicError, or with a panic in a generator,
// which Run raises on its caller's goroutine whoever filled the chunk.
// Each case checks that the helper held the spare processor while Run
// ran.
func TestRunAheadGoroutines(t *testing.T) {
	atTwoProcs(t)
	mix := func(t *testing.T, gens ...workload.Generator) *System {
		s := New(sharedL2(), Config{CaptureL1Misses: true})
		for i, g := range gens {
			if err := s.AddCore(uint16(i+1), g); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	// runs runs s and returns Run's error and the value it panicked
	// with.
	runs := func(s *System, refs int) (err error, v any) {
		defer func() { v = recover() }()
		return s.Run(refs), nil
	}
	cases := []struct {
		name   string
		system func(t *testing.T) *System
		check  func(t *testing.T, err error, v any)
	}{
		{"return", func(t *testing.T) *System {
			return mix(t, mixGens(t, workload.MixedNames, 2006)...)
		}, func(t *testing.T, err error, v any) {
			if err != nil || v != nil {
				t.Fatalf("Run returned %v and panicked with %v", err, v)
			}
		}},
		{"window-error", func(t *testing.T) *System {
			gens := mixGens(t, workload.MixedNames, 2006)
			gens[5] = &windowGen{base: 6 << asidShift, good: 50_000, addr: 9 << asidShift}
			return mix(t, gens...)
		}, func(t *testing.T, err error, v any) {
			var we *WindowError
			if !errors.As(err, &we) || v != nil {
				t.Fatalf("Run returned %v and panicked with %v, want a *WindowError", err, v)
			}
		}},
		{"hook-panic", func(t *testing.T) *System {
			s := mix(t, mixGens(t, workload.MixedNames, 2006)...)
			calls := 0
			s.OnL2Access = func(trace.Ref, engine.Result) {
				if calls++; calls == 20_000 {
					panic("hook")
				}
			}
			return s
		}, func(t *testing.T, err error, v any) {
			if v != "hook" {
				t.Fatalf("Run returned %v and panicked with %v, want the hook's panic", err, v)
			}
		}},
		{"generator-panic", func(t *testing.T) *System {
			gens := mixGens(t, workload.MixedNames, 2006)
			gens[7] = &panicGen{Generator: gens[7], n: 60_000}
			return mix(t, gens...)
		}, func(t *testing.T, err error, v any) {
			if v != "panicGen" {
				t.Fatalf("Run returned %v and panicked with %v, want the generator's panic", err, v)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := c.system(t)
			held := false
			hook := s.OnL2Access
			s.OnL2Access = func(r trace.Ref, res engine.Result) {
				if !held {
					held = !spareFree()
				}
				if hook != nil {
					hook(r, res)
				}
			}
			before := runtime.NumGoroutine()
			err, v := runs(s, 1_200_000)
			c.check(t, err, v)
			if !held {
				t.Error("no helper held the spare processor during Run")
			}
			settled(t, before)
			if !spareFree() {
				t.Error("the spare processor is still taken after Run")
			}
		})
	}
}
