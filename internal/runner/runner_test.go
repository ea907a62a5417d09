package runner

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"molcache/internal/rng"
	"molcache/internal/telemetry"
)

// TestMapOrdering: results land at their submission index at every worker
// count, even when later jobs finish first.
func TestMapOrdering(t *testing.T) {
	items := make([]int, 64)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 2, 8, 100} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			out, err := Map(context.Background(), Pool{Workers: workers}, items,
				func(_ context.Context, i int, item int) (int, error) {
					if i%7 == 0 {
						time.Sleep(time.Millisecond) // let later jobs overtake
					}
					return item * item, nil
				})
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range out {
				if v != i*i {
					t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
				}
			}
		})
	}
}

// TestMapSerialInline: Workers==1 runs every job on the calling goroutine
// in submission order — the drop-in replacement for a plain loop.
func TestMapSerialInline(t *testing.T) {
	var order []int
	_, err := Map(context.Background(), Pool{Workers: 1}, []int{0, 1, 2, 3},
		func(_ context.Context, i int, _ int) (int, error) {
			order = append(order, i) // safe: serial mode is single-goroutine
			return 0, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("serial execution order %v, want ascending", order)
		}
	}
}

// TestMapFirstErrorWins: the reported error is the lowest-index real
// failure, not a cancellation it induced elsewhere.
func TestMapFirstErrorWins(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			_, err := Map(context.Background(), Pool{Workers: workers},
				[]int{0, 1, 2, 3, 4, 5, 6, 7},
				func(ctx context.Context, i int, _ int) (int, error) {
					if i == 3 {
						return 0, boom
					}
					if i > 3 {
						// Late jobs observe the cancellation.
						select {
						case <-ctx.Done():
							return 0, ctx.Err()
						case <-time.After(50 * time.Millisecond):
							return 0, nil
						}
					}
					return 0, nil
				})
			if !errors.Is(err, boom) {
				t.Fatalf("got %v, want %v", err, boom)
			}
		})
	}
}

// TestMapCancellationOnly: when every failure is a cancellation (caller
// cancelled the context), Map reports the cancellation.
func TestMapCancellationOnly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Map(ctx, Pool{Workers: 2}, []int{0, 1, 2},
		func(ctx context.Context, _ int, _ int) (int, error) {
			return 0, ctx.Err()
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestMapPanicCapture: a panicking job becomes a *PanicError for that job;
// the rest of the batch completes.
func TestMapPanicCapture(t *testing.T) {
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var completed atomic.Int32
			_, err := Map(context.Background(), Pool{Workers: workers, Label: "sim"},
				[]int{0, 1, 2, 3},
				func(_ context.Context, i int, _ int) (int, error) {
					if i == 2 {
						panic("kaboom")
					}
					completed.Add(1)
					return 0, nil
				})
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("got %T %v, want *PanicError", err, err)
			}
			if pe.Job != "sim[2]" || pe.Value != "kaboom" || len(pe.Stack) == 0 {
				t.Fatalf("bad PanicError: job=%q value=%v stack=%d bytes",
					pe.Job, pe.Value, len(pe.Stack))
			}
		})
	}
}

// TestRunNamedJobs: Run keeps submission order and names panic reports
// after the job, not the index.
func TestRunNamedJobs(t *testing.T) {
	jobs := []Job[string]{
		{Name: "alpha", Run: func(context.Context) (string, error) { return "a", nil }},
		{Name: "beta", Run: func(context.Context) (string, error) { return "b", nil }},
	}
	out, err := Run(context.Background(), Pool{Workers: 2}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != "a" || out[1] != "b" {
		t.Fatalf("out = %v", out)
	}

	jobs = append(jobs, Job[string]{Name: "gamma",
		Run: func(context.Context) (string, error) { panic("g") }})
	_, err = Run(context.Background(), Pool{Workers: 1}, jobs)
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Job != "gamma" {
		t.Fatalf("got %v, want PanicError for gamma", err)
	}
}

// TestMapTelemetry: the runner_* instruments and job events reflect the
// batch exactly.
func TestMapTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(64)
	boom := errors.New("boom")
	_, err := Map(context.Background(), Pool{
		Workers:  1,
		Registry: reg,
		Tracer:   tr,
		Label:    "batch",
	}, []int{0, 1, 2, 3},
		func(_ context.Context, i int, _ int) (int, error) {
			switch i {
			case 1:
				return 0, boom
			case 3:
				panic("p")
			}
			return 0, nil
		})
	if err == nil {
		t.Fatal("want an error")
	}
	get := func(name string) uint64 { return reg.Counter(name).Value() }
	if got := get("runner_jobs_submitted_total"); got != 4 {
		t.Errorf("submitted = %d", got)
	}
	if got := get("runner_jobs_completed_total"); got != 4 {
		t.Errorf("completed = %d, want 4 (serial mode still invokes every job)", got)
	}
	if got := get("runner_job_panics_total"); got != 1 {
		t.Errorf("panics = %d", got)
	}
	if failed := get("runner_jobs_failed_total"); failed < 2 {
		t.Errorf("failed = %d, want >= 2 (boom + panic)", failed)
	}
	if h := reg.Histogram("runner_job_seconds", nil); h.Count() != 4 {
		t.Errorf("job_seconds count = %d, want 4", h.Count())
	}
	var starts, dones int
	for _, e := range tr.Events() {
		switch e.Kind {
		case telemetry.KindJobStart:
			starts++
		case telemetry.KindJobDone:
			dones++
		}
	}
	if starts != 4 || dones != 4 {
		t.Errorf("events: %d starts, %d dones, want 4/4", starts, dones)
	}
}

// TestMapEmpty: an empty batch is a no-op success.
func TestMapEmpty(t *testing.T) {
	out, err := Map(context.Background(), Pool{}, nil,
		func(_ context.Context, _ int, _ struct{}) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("got %v, %v", out, err)
	}
}

// TestSeedMatchesDerive: the runner's per-job seed helper is exactly
// rng.DeriveSeed, and distinct jobs get distinct seeds.
func TestSeedMatchesDerive(t *testing.T) {
	seen := map[uint64]int{}
	for i := 0; i < 1000; i++ {
		s := Seed(2006, i)
		if s != rng.DeriveSeed(2006, uint64(i)) {
			t.Fatalf("Seed(2006, %d) diverges from rng.DeriveSeed", i)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision between jobs %d and %d", prev, i)
		}
		seen[s] = i
	}
}

// TestProgressThroughput: the throughput gauge's value is finite and
// sane.
func TestProgressThroughput(t *testing.T) {
	if got := jobsPerSecond(10, 2*time.Second); got != 5 {
		t.Fatalf("jobsPerSecond(10, 2s) = %v, want 5", got)
	}
	if got := jobsPerSecond(0, 0); got != 0 {
		t.Fatalf("jobsPerSecond with no time elapsed = %v, want 0", got)
	}
}

// TestManualClockDeterministicDurations: with an injected ManualClock
// every duration-derived metric is exact — the histogram sums precisely
// the advanced time and the final throughput is reproducible
// bit-for-bit, which wall-clock timestamps can never be.
func TestManualClockDeterministicDurations(t *testing.T) {
	reg := telemetry.NewRegistry()
	clk := NewManualClock(time.Unix(1000, 0))
	_, err := Map(context.Background(), Pool{
		Workers:  1,
		Registry: reg,
		Clock:    clk,
	}, []int{0, 1, 2, 3},
		func(_ context.Context, i int, _ int) (int, error) {
			clk.Advance(10 * time.Millisecond) // each job "takes" exactly 10ms
			return i, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	h := reg.Histogram("runner_job_seconds", nil)
	if h.Count() != 4 {
		t.Fatalf("job_seconds count = %d, want 4", h.Count())
	}
	if got := h.Sum(); got != 0.04 {
		t.Errorf("job_seconds sum = %v, want exactly 0.04", got)
	}
	if got := reg.Gauge("runner_jobs_per_second").Value(); got != 100 {
		t.Errorf("runner_jobs_per_second = %v, want exactly 100 (4 jobs in 40ms)", got)
	}
}

// TestManualClock: the clock itself only moves on Advance.
func TestManualClock(t *testing.T) {
	start := time.Unix(42, 0)
	clk := NewManualClock(start)
	if !clk.Now().Equal(start) {
		t.Fatalf("Now = %v, want %v", clk.Now(), start)
	}
	if d := clk.Since(start); d != 0 {
		t.Fatalf("Since(start) = %v, want 0", d)
	}
	clk.Advance(3 * time.Second)
	if d := clk.Since(start); d != 3*time.Second {
		t.Fatalf("after Advance, Since(start) = %v, want 3s", d)
	}
}
