// Package runner is the parallel experiment scheduler: it fans
// independent simulation jobs (sweep points, paper tables and figures,
// fault campaigns) across a fixed pool of workers while keeping every
// result deterministic.
//
// The paper's evaluation is embarrassingly parallel — Tables 1-5 and
// Figures 5-6 replay the same captured traces through dozens of cache
// configurations that never share state — so the scaling axis is job-level
// fan-out, not intra-simulation threading. The invariants the package
// guarantees make that fan-out safe to diff against a serial run:
//
//   - Results are collected in submission order, regardless of completion
//     order: Map(ctx, p, items, fn)[i] is always fn's result for items[i].
//   - A pool with Workers == 1 runs every job inline on the calling
//     goroutine, in submission order — byte-identical behaviour to the
//     nested loops it replaced.
//   - Jobs must not share mutable state. Each builds its own caches and
//     controllers and may share immutable inputs (captured trace slices).
//     Per-job RNG streams come from rng.DeriveSeed via Pool-independent
//     seeding, so draws never interleave across jobs.
//   - A panic inside a job is captured and surfaced as a *PanicError for
//     that job, not a crash of the whole sweep.
//   - The first job error cancels the context handed to every other job;
//     Map returns the error of the lowest submission index so the
//     reported failure is deterministic too.
//
// Progress and throughput flow through internal/telemetry: the pool
// maintains runner_* counters/gauges when a Registry is attached and
// emits job-start/job-done events when a Tracer is attached.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"molcache/internal/rng"
	"molcache/internal/telemetry"
)

// Pool describes a worker pool. The zero value is valid: GOMAXPROCS
// workers, no telemetry.
type Pool struct {
	// Workers is the number of concurrent jobs (0 means GOMAXPROCS;
	// 1 means serial, inline execution in submission order).
	Workers int
	// Tracer, when set, receives a job-start and job-done event per job.
	Tracer *telemetry.Tracer
	// Registry, when set, maintains the runner_* metrics: jobs submitted,
	// completed, failed, panics, worker count, job seconds and throughput.
	Registry *telemetry.Registry
	// Label names the batch in telemetry events (default "job").
	Label string
	// Clock supplies the timestamps behind job-duration metrics and the
	// throughput gauge (nil means the real wall clock). Tests inject a
	// ManualClock so duration metrics are deterministic.
	Clock Clock
}

// jobsPerSecond is the throughput of done jobs finished in elapsed.
func jobsPerSecond(done int, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(done) / elapsed.Seconds()
}

// PanicError wraps a panic captured inside a job.
type PanicError struct {
	// Job is the panicking job's telemetry label and submission index.
	Job string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: job %s panicked: %v", e.Job, e.Value)
}

// workers resolves the configured worker count.
func (p Pool) workers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// label resolves the batch label.
func (p Pool) label() string {
	if p.Label != "" {
		return p.Label
	}
	return "job"
}

// clock resolves the configured Clock.
func (p Pool) clock() Clock {
	if p.Clock != nil {
		return p.Clock
	}
	return realClock{}
}

// Seed derives the i-th job's RNG seed from base. It is a thin alias for
// rng.DeriveSeed so experiment code that already imports runner does not
// need a second import for the common case.
func Seed(base uint64, i int) uint64 { return rng.DeriveSeed(base, uint64(i)) }

// jobSecondsBounds buckets job wall times from sub-millisecond unit-test
// jobs up to multi-minute full-scale replays.
var jobSecondsBounds = []float64{0.001, 0.01, 0.1, 0.5, 1, 5, 15, 60, 300}

// instruments holds the pool's registry attachments for one batch.
type instruments struct {
	submitted, completed, failed, panics *telemetry.Counter
	workers, throughput                  *telemetry.Gauge
	seconds                              *telemetry.Histogram
}

func (p Pool) instruments() *instruments {
	if p.Registry == nil {
		return &instruments{} // nil fields: every method is a no-op
	}
	return &instruments{
		submitted:  p.Registry.Counter("runner_jobs_submitted_total"),
		completed:  p.Registry.Counter("runner_jobs_completed_total"),
		failed:     p.Registry.Counter("runner_jobs_failed_total"),
		panics:     p.Registry.Counter("runner_job_panics_total"),
		workers:    p.Registry.Gauge("runner_workers"),
		throughput: p.Registry.Gauge("runner_jobs_per_second"),
		seconds:    p.Registry.Histogram("runner_job_seconds", jobSecondsBounds),
	}
}

// Map runs fn over every item on the pool and returns the results in
// submission order: out[i] is fn(ctx, i, items[i]). On the first job
// error the context passed to the remaining jobs is cancelled; jobs
// already running finish (or observe the cancellation), queued jobs are
// still invoked with the cancelled context and may return immediately.
// The returned error is the lowest-index job error, preferring real
// failures over the context-cancellation errors they induced.
func Map[T, R any](ctx context.Context, p Pool, items []T,
	fn func(ctx context.Context, i int, item T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	if len(items) == 0 {
		return out, ctx.Err()
	}
	ins := p.instruments()
	ins.submitted.Add(uint64(len(items)))
	nw := p.workers()
	if nw > len(items) {
		nw = len(items)
	}
	ins.workers.Set(float64(nw))

	errs := make([]error, len(items))
	clk := p.clock()
	start := clk.Now()
	var mu sync.Mutex // serializes completions: the gauge ends at the final throughput
	done := 0

	runJob := func(ctx context.Context, i int) {
		label := fmt.Sprintf("%s[%d]", p.label(), i)
		p.Tracer.Emit(telemetry.Event{
			Kind: telemetry.KindJobStart, Detail: label, Value: int64(i),
		})
		t0 := clk.Now()
		func() {
			defer func() {
				if v := recover(); v != nil {
					errs[i] = &PanicError{Job: label, Value: v, Stack: debug.Stack()}
				}
			}()
			out[i], errs[i] = fn(ctx, i, items[i])
		}()
		var pe *PanicError
		if errors.As(errs[i], &pe) {
			ins.panics.Inc()
		}
		dt := clk.Since(t0)
		ins.seconds.Observe(dt.Seconds())
		ins.completed.Inc()
		if errs[i] != nil {
			ins.failed.Inc()
		}
		p.Tracer.Emit(telemetry.Event{
			Kind: telemetry.KindJobDone, Detail: label, Value: int64(i),
			Aux: dt.Microseconds(), Hit: errs[i] == nil,
		})
		mu.Lock()
		done++
		ins.throughput.Set(jobsPerSecond(done, clk.Since(start)))
		mu.Unlock()
	}

	if nw == 1 {
		// Serial mode: inline, in submission order, on the caller's
		// goroutine — the byte-identical replacement for a nested loop.
		// The first error still stops the batch early via cancellation.
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		for i := range items {
			runJob(ctx, i)
			if errs[i] != nil {
				cancel()
			}
		}
		return out, firstError(errs)
	}

	jctx, cancel := context.WithCancel(ctx)
	defer cancel()
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				runJob(jctx, i)
				if errs[i] != nil {
					cancel()
				}
			}
		}()
	}
	for i := range items {
		next <- i
	}
	close(next)
	wg.Wait()
	return out, firstError(errs)
}

// Job couples a label with a closure, for batches whose points are not
// naturally a slice of one item type.
type Job[R any] struct {
	// Name labels the job in telemetry and panic reports.
	Name string
	// Run produces the job's result. It must not share mutable state
	// with other jobs.
	Run func(ctx context.Context) (R, error)
}

// Run executes the jobs on the pool, results in submission order. A
// panicking job surfaces as a *PanicError carrying its Name.
func Run[R any](ctx context.Context, p Pool, jobs []Job[R]) ([]R, error) {
	return Map(ctx, p, jobs, func(ctx context.Context, _ int, j Job[R]) (out R, err error) {
		defer func() {
			if v := recover(); v != nil {
				err = &PanicError{Job: j.Name, Value: v, Stack: debug.Stack()}
			}
		}()
		return j.Run(ctx)
	})
}

// firstError returns the error of the lowest-index failed job, preferring
// a non-cancellation error: when job 7 fails and cancels jobs 2 and 5
// mid-flight, the reported failure is still job 7's, deterministically.
func firstError(errs []error) error {
	var cancelled error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if cancelled == nil {
				cancelled = err
			}
			continue
		}
		return err
	}
	return cancelled
}
