package experiments

// Determinism tests for the parallel runner integration: every experiment
// must produce byte-identical output at any worker count, because jobs
// share only immutable captured traces and results are collected in
// submission order.

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"molcache/internal/addr"
	"molcache/internal/molecular"
	"molcache/internal/telemetry"
)

// smallSweep is an 8-point grid small enough to run at several worker
// counts in one test.
func smallSweep(jobs int) SweepOptions {
	return SweepOptions{
		ProcessorRefs: 200_000,
		Seed:          2006,
		Sizes:         []uint64{1 * addr.MB, 2 * addr.MB},
		MoleculeSizes: []uint64{8 * addr.KB, 16 * addr.KB},
		Policies: []molecular.ReplacementKind{
			molecular.RandomReplacement, molecular.RandyReplacement,
		},
		Jobs: jobs,
	}
}

// TestSweepJobsByteIdentical: the satellite determinism guarantee — the
// same sweep at -jobs 1 and -jobs 8 emits byte-identical CSV.
func TestSweepJobsByteIdentical(t *testing.T) {
	render := func(jobs int) []byte {
		rows, err := Sweep(smallSweep(jobs))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteSweepCSV(&buf, rows); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := render(1)
	for _, jobs := range []int{2, 8} {
		if parallel := render(jobs); !bytes.Equal(serial, parallel) {
			t.Errorf("-jobs %d CSV differs from serial:\n--- jobs=1 ---\n%s\n--- jobs=%d ---\n%s",
				jobs, serial, jobs, parallel)
		}
	}
}

// TestTable1JobsIdentical and TestFigure5JobsIdentical pin the paper
// experiments to the same property at the typed-result level.
func TestTable1JobsIdentical(t *testing.T) {
	opt := Options{ProcessorRefs: 200_000, Seed: 2006}
	opt.Jobs = 1
	serial, err := Table1(opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Jobs = 8
	parallel, err := Table1(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("Table1 rows differ across worker counts:\nserial:   %+v\nparallel: %+v",
			serial, parallel)
	}
}

func TestFigure5JobsIdentical(t *testing.T) {
	opt := Options{ProcessorRefs: 200_000, Seed: 2006}
	opt.Jobs = 1
	serial, err := Figure5(opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Jobs = 8
	parallel, err := Figure5(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("Figure5 points differ across worker counts")
	}
}

// TestSweepProgressAndMetrics: the runner's observability hooks fire from
// the experiment layer — the runner_* counters account for every grid
// point and the throughput gauge has a value — and no grid point's
// simulation metrics land in the shared registry, where unlike
// configurations would sum and the last to register would speak for all.
func TestSweepProgressAndMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	opt := smallSweep(2)
	opt.Registry = reg
	rows, err := Sweep(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"runner_jobs_submitted_total", "runner_jobs_completed_total"} {
		if got := reg.Counter(name).Value(); got != uint64(len(rows)) {
			t.Errorf("%s = %d, want %d", name, got, len(rows))
		}
	}
	if got := reg.Gauge("runner_jobs_per_second").Value(); got <= 0 {
		t.Errorf("runner_jobs_per_second = %v after %d points, want > 0", got, len(rows))
	}
	if text := reg.Snapshot().PrometheusString(); strings.Contains(text, "molcache_") {
		t.Errorf("sweep registry holds simulation metrics:\n%s", text)
	}
}

// TestSweepParallelSpeedup checks the wall-clock win on multi-core hosts.
// It is skipped below 4 cores (the 1-CPU CI container can only validate
// determinism, not scaling); on 4+ cores the embarrassingly parallel
// replay phase must clear 2x, and comfortably reaches the 2.5x+ the
// EXPERIMENTS.md timings record.
func TestSweepParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement is not a -short test")
	}
	cores := runtime.GOMAXPROCS(0)
	if cores < 4 {
		t.Skipf("need >= 4 cores to measure scaling, have %d", cores)
	}
	// A wide grid keeps the parallel replay phase dominant over the
	// serial trace capture (Amdahl's law caps the whole-sweep speedup at
	// the replay fraction, so the threshold here is 1.8x; the pure replay
	// phase itself scales near-linearly and clears 2.5x).
	opt := smallSweep(1)
	opt.ProcessorRefs = 400_000
	opt.Sizes = []uint64{1 * addr.MB, 2 * addr.MB, 4 * addr.MB}
	opt.Policies = []molecular.ReplacementKind{
		molecular.RandomReplacement, molecular.RandyReplacement, molecular.LRUDirect,
	}
	timeRun := func(jobs int) time.Duration {
		opt.Jobs = jobs
		start := time.Now()
		if _, err := Sweep(opt); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	timeRun(1) // warm the page cache and allocator before timing
	serial := timeRun(1)
	parallel := timeRun(cores)
	speedup := float64(serial) / float64(parallel)
	t.Logf("serial %v, parallel(%d) %v: speedup %.2fx", serial, cores, parallel, speedup)
	if speedup < 1.8 {
		t.Errorf("speedup %.2fx below 1.8x on %d cores", speedup, cores)
	}
}
