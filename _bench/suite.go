package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"sort"
	"time"

	"molcache/internal/experiments"
	"molcache/internal/telemetry"
)

// suite: every table and figure `cmd/experiments -run all` prints, in
// its order, at suiteProcRefs processor references per experiment and
// Jobs at its default (GOMAXPROCS). An op is one runner job (an
// independent simulation point); the latency percentiles are per job.
// Set-up runs from process start to the first experiment call.
const suiteProcRefs = 1_000_000

// suiteDigests are the recorded digests of the rendered tables by seed
// (seed 0 selects the experiments' default, 2006). A seed without an
// entry is checked for agreement between passes only.
var suiteDigests = map[uint64]string{
	0:           "b5e9094407d801d8",
	defaultSeed: "b5e9094407d801d8",
	1:           "c1fef73f865c86ce",
	2:           "7841d03e83213a2b",
	3:           "990eaf5dea256c68",
	4:           "3036bbc116121a75",
	5:           "17f0ff65ee17296f",
	6:           "9d1a92f899014e63",
	7:           "ffde765e82856ec6",
	8:           "10a93dfe40186dff",
	9:           "23c657436f12714b",
	10:          "47da66ad127be489",
	11:          "2e29b57e2812cb50",
	12:          "09250eadc7c62973",
}

// jobTimes collects runner job durations, in µs, by job label (e.g.
// "table1[3]") from the scheduler's job-done events. The tracer calls
// Write under its own lock.
type jobTimes map[string]float64

func (j jobTimes) Write(e telemetry.Event) error {
	if e.Kind == telemetry.KindJobDone {
		j[e.Detail] = float64(e.Aux)
	}
	return nil
}

func (j jobTimes) Flush() error { return nil }

func runSuite(a passArgs) *passResult {
	res := newPassResult()
	jobs := jobTimes{}
	tr := telemetry.NewTracer(16)
	tr.SetSink(jobs)
	opt := experiments.Options{ProcessorRefs: suiteProcRefs, Seed: a.seed, Tracer: tr}
	var reg *telemetry.Registry
	if a.traced {
		reg = telemetry.NewRegistry()
		opt.Registry = reg
	}
	var out bytes.Buffer
	var calls []float64
	root := a.spans.begin("suite", -1)
	start := time.Now()
	res.set("setup_s", start.Sub(a.spawned).Seconds(), 1)

	// step runs one experiment call inside a span and records its time
	// under metric (when named).
	step := func(metric, span string, fn func() error) bool {
		sp := a.spans.begin(span, root)
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		a.spans.end(sp)
		calls = append(calls, d.Seconds())
		if metric != "" && a.traced {
			res.set(metric, d.Seconds(), 1)
		}
		if err != nil {
			res.fail("%s: %v", span, err)
			return false
		}
		return true
	}
	var (
		t2 *experiments.Table2Result
		t4 *experiments.Table4Result
	)
	ok := step("experiments.table1_s", "experiments.Table1", func() error {
		rows, err := experiments.Table1(opt)
		experiments.RenderTable1(&out, rows)
		return err
	}) && step("experiments.figure5_s", "experiments.Figure5", func() error {
		points, err := experiments.Figure5(opt)
		experiments.RenderFigure5(&out, points)
		return err
	}) && step("experiments.related_s", "experiments.RelatedWork", func() error {
		rows, err := experiments.RelatedWork(opt)
		experiments.RenderRelatedWork(&out, rows)
		return err
	}) && step("experiments.table2_s", "experiments.Table2", func() error {
		var err error
		if t2, err = experiments.Table2(opt); err == nil {
			experiments.RenderTable2(&out, t2)
			experiments.RenderFigure6(&out, experiments.Figure6(t2))
		}
		return err
	}) && step("experiments.table4_s", "experiments.Table4", func() error {
		var err error
		if t4, err = experiments.Table4(opt, t2); err == nil {
			experiments.RenderTable4(&out, t4)
		}
		return err
	}) && step("", "experiments.Table5", func() error {
		rows, err := experiments.Table5(opt, t2, t4)
		experiments.RenderTable5(&out, rows)
		return err
	}) && step("", "experiments.ComputeHeadline", func() error {
		h, err := experiments.ComputeHeadline(t2, t4)
		if err == nil {
			experiments.RenderHeadline(&out, h)
		}
		return err
	})
	wall := time.Since(start)
	a.spans.end(root)

	sum := sha256.Sum256(out.Bytes())
	res.Digest = hex.EncodeToString(sum[:])[:16]
	n := int64(len(jobs))
	res.Attempted = n
	if !ok {
		res.Failed = n
		return res
	}
	if want, ok := suiteDigests[a.seed]; ok && want != res.Digest {
		res.fail("rendered tables digest %s, recorded %s for seed %d", res.Digest, want, a.seed)
		res.Failed = n
	}

	var jobUs []float64
	for _, label := range sortedKeys(jobs) {
		jobUs = append(jobUs, jobs[label])
	}
	res.observe("call_s", calls)
	res.observe("job_us", jobUs)
	res.set("wall_s", wall.Seconds(), 1)
	res.set("ops_per_s", float64(n)/wall.Seconds(), n)
	res.set("p50_us", quantile(jobUs, 0.5), n)
	res.set("p90_us", quantile(jobUs, 0.9), n)
	if a.traced {
		snap := reg.Snapshot()
		// busy_ratio is the share of the pool's worker time spent in jobs.
		busy := snap.Histograms["runner_job_seconds"].Sum
		res.set("runner.jobs", float64(snap.Counters["runner_jobs_completed_total"]), 1)
		res.set("runner.busy_ratio", busy/(wall.Seconds()*float64(runtime.GOMAXPROCS(0))), n)
	}
	return res
}

// finishSuite: an op is one runner job. wall_s sums the experiment
// calls, and the latency percentiles are over jobs.
func finishSuite(units map[string][]float64) map[string]float64 {
	var wall float64
	for _, c := range units["call_s"] {
		wall += c
	}
	jobs := units["job_us"]
	return map[string]float64{
		"wall_s":    wall,
		"ops_per_s": float64(len(jobs)) / wall,
		"p50_us":    quantile(jobs, 0.5),
		"p90_us":    quantile(jobs, 0.9),
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
