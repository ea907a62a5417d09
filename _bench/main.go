// Command molbench is the repository's end-to-end benchmark. One
// invocation measures one workload and prints, as the last line of its
// standard output, a JSON object with the keys correct, attempted,
// failed and metrics.
//
// Usage (from the repository root; _bench/run.sh builds and runs it):
//
//	molbench --workload replay-mix12|suite|serve-hot|serve-churn \
//	         --seed N --seconds S --trace 0|1
//
// Every measured pass runs in a fresh child process, because servers run
// back to back in one process slow each other down through the shared
// heap and GC. A pass does a fixed amount of work; --seconds sets how
// many passes a run makes (about one pass per passSeconds of budget, at
// least minPasses), so a given --seconds always means the same work.
//
// On the shared 2-vCPU reference box, neighbours slow the memory system
// by up to a third in phases lasting from milliseconds to minutes, and
// served latency switches between a fast and a slow mode every few
// hundred milliseconds, so medians over passes moved by 20-30% between
// runs. Every pass repeats the same units of work in the same order (a
// replay window, a suite job, a slice of a connection's requests), so
// the run reduces each unit to one quantile of its observations (see
// unitQuantile) and derives ops_per_s, wall_s, p50_us and p90_us from
// those. setup_s and peak_rss_mb are medians over the passes.
//
// With --trace 1 half of the passes are traced: the benchmark times
// every call it makes into a layer's public functions, keeps the spans
// in memory and writes them to <build dir>/spans at exit. The JSON then
// carries the per-layer metrics, the tracing overhead (traced minus
// untraced end-to-end figure) and the residual of the stage costs
// against the end-to-end figure.
//
// The directory name starts with an underscore so that the root
// module's ./... patterns and the molvet sweep skip this separate
// module.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed whose output digests are recorded in the
// source (the paper's publication year, the experiments' default).
const defaultSeed = 2006

// runBudget bounds a whole invocation: every child is killed and the
// run fails once it is spent, so the benchmark always ends.
const runBudget = 170 * time.Second

// journalPolicy states how the serving workloads' journal is flushed.
const journalPolicy = "buffered writes, fsync only at shutdown (the server's only policy)"

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the figures a user of the system sees; every workload
// reports all of them (see each workload's comment for what an "op" is).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"wall_s", "s"},
	{"p50_us", "us"},
	{"p90_us", "us"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A layer a workload never calls
// reports 0: that is the predicted "no movement" for a change there.
var perLayer = []metricDef{
	{"cmp.capture_s", "s"},
	{"cmp.ns_per_proc_ref", "ns"},
	{"cmp.l2_refs", "count"},
	{"molecular.access_ns", "ns"},
	{"molecular.allocs_per_access", "count"},
	{"molecular.hit_ratio", "ratio"},
	{"molecular.probes_per_access", "count"},
	{"resize.tick_ns", "ns"},
	{"resize.share", "ratio"},
	{"resize.decisions", "count"},
	{"replay.residual_ns", "ns"},
	{"shard.batch_us", "us"},
	{"molecular.batch_us", "us"},
	{"shard.overhead_us", "us"},
	{"server.decode_ns", "ns"},
	{"server.allocs_per_req", "count"},
	{"server.gc_pause_ms", "ms"},
	{"server.batch_size", "count"},
	{"server.notfound_ratio", "ratio"},
	{"server.get_p50_us", "us"},
	{"server.set_p50_us", "us"},
	{"server.p99_us", "us"},
	{"server.p999_us", "us"},
	{"server.residual_us", "us"},
	{"journal.append_us", "us"},
	{"journal.bytes_per_access", "B"},
	{"obs.collect_us", "us"},
	{"experiments.table1_s", "s"},
	{"experiments.figure5_s", "s"},
	{"experiments.related_s", "s"},
	{"experiments.table2_s", "s"},
	{"experiments.table4_s", "s"},
	{"runner.jobs", "count"},
	{"runner.busy_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// passArgs is what a child process needs to run one pass.
type passArgs struct {
	seed   uint64
	traced bool
	spans  *spanLog // nil when untraced
	// spawned is when the parent started this process (the suite's
	// set-up runs from process start to the first experiment call).
	spawned time.Time
	// tmp is a scratch directory inside the build directory.
	tmp string
}

// passResult is one child's report.
type passResult struct {
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]int64   `json:"samples"`
	Digest    string             `json:"digest"`
	Errors    []string           `json:"errors,omitempty"`
	// Series holds, per name, one vector of per-unit observations for
	// each pass the process made. Units keep a fixed order: the same
	// unit of work (a replay window, a suite job, a slice of a
	// connection's requests) sits at the same index in every pass.
	Series map[string][][]float64 `json:"series,omitempty"`
}

func newPassResult() *passResult {
	return &passResult{Correct: true, Metrics: map[string]float64{}, Samples: map[string]int64{}}
}

// set records a metric with the number of samples behind it.
func (r *passResult) set(name string, v float64, samples int64) {
	r.Metrics[name] = v
	r.Samples[name] = samples
}

// observe adds one pass's per-unit observations to series name.
func (r *passResult) observe(name string, v []float64) {
	if r.Series == nil {
		r.Series = map[string][][]float64{}
	}
	r.Series[name] = append(r.Series[name], v)
}

// fail marks the pass incorrect with a reason; only the first few
// reasons are kept.
func (r *passResult) fail(format string, args ...any) {
	r.Correct = false
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// benchWorkload is one benchmark input set.
type benchWorkload struct {
	why string
	// passSeconds is roughly how long one pass takes on the reference
	// box (2 vCPU); it converts --seconds into a fixed pass count.
	passSeconds float64
	// primary is the end-to-end figure the tracing overhead and the
	// stage reconciliation are stated against.
	primary string
	run     func(a passArgs) *passResult
	// unitQuantile reduces each unit's observations over the run to
	// one value, chosen from ten-seed comparisons on the reference box.
	// A replay window is deterministic single-threaded work whose
	// interference only adds time, so its fastest observation (0) is
	// its undisturbed cost. A served slice also varies with the
	// runtime's scheduling mode, so it takes the lower quartile (0.25)
	// rather than its luckiest mode. A suite job's time depends on which
	// job shares the other core, so it takes the median (0.5).
	unitQuantile float64
	// finish derives ops_per_s, wall_s, p50_us and p90_us (and primary)
	// from the reduced units.
	finish func(units map[string][]float64) map[string]float64
}

// minPasses keeps every median over at least this many processes; the
// traced run needs two traced and two untraced passes.
const minPasses = 4

var workloads = map[string]benchWorkload{
	"replay-mix12": {
		why:          "Table 2's 12-app mix replayed into the 6 MB molecular cache: the access path and Algorithm 1 resizing carry the time; server, shard and runner are bypassed",
		passSeconds:  5.5,
		primary:      "ns_per_access",
		run:          runReplay,
		unitQuantile: 0,
		finish:       finishReplay,
	},
	"suite": {
		why:          "every table and figure of cmd/experiments at reduced length: the only workload where cmp, the set-associative cache, partition, stackdist, power and runner carry the time",
		passSeconds:  3,
		primary:      "wall_s",
		run:          runSuite,
		unitQuantile: 0.5,
		finish:       finishSuite,
	},
	"serve-hot": {
		why:          "molcached read-mostly closed loop, 2 connections over a preloaded hot set: the request path dominates and the cache model is a small share",
		passSeconds:  2.5,
		primary:      "p50_us",
		run:          runServeHot,
		unitQuantile: 0.25,
		finish:       finishServe,
	},
	"serve-churn": {
		why:          "molcached write-heavy closed loop over 2-4x the cache: SET path, growing value store, NOTFOUND replies and live resizing, so a write-path cost shows",
		passSeconds:  2.5,
		primary:      "p50_us",
		run:          runServeChurn,
		unitQuantile: 0.25,
		finish:       finishServe,
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", defaultSeed, "input seed")
		seconds = flag.Int("seconds", 20, "measurement budget; fixes the number of passes")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		child   = flag.Bool("child", false, "internal: run one pass and print its report")
		traced  = flag.Bool("traced", false, "internal: trace this pass")
		spans   = flag.String("spans", "", "internal: span output path")
		spawned = flag.Int64("spawned", 0, "internal: parent's spawn time, Unix ns")
		tmp     = flag.String("tmp", "", "internal: scratch directory")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "molbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *child {
		os.Exit(runChild(w, *seed, *traced, *spans, *spawned, *tmp))
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "molbench: --trace wants 0 or 1")
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "molbench: --seconds wants a positive count")
		os.Exit(2)
	}
	if err := runParent(*name, w, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "molbench:", err)
		os.Exit(1)
	}
}

// runChild runs one pass and prints its report as one JSON line.
func runChild(w benchWorkload, seed uint64, traced bool, spansPath string, spawned int64, tmp string) int {
	a := passArgs{seed: seed, traced: traced, spawned: time.Unix(0, spawned), tmp: tmp}
	if spawned == 0 {
		a.spawned = time.Now()
	}
	if traced {
		a.spans = newSpanLog()
	}
	res := w.run(a)
	if err := a.spans.write(spansPath); err != nil {
		res.fail("%v", err)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "molbench:", err)
		return 1
	}
	return 0
}

// buildDir is where build outputs, spans and scratch files go.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// childRun is one finished child pass.
type childRun struct {
	res    *passResult
	traced bool
	rssMB  float64
}

func runParent(name string, w benchWorkload, seed uint64, seconds int, trace bool) error {
	n := int(math.Round(float64(seconds) / w.passSeconds))
	if n < minPasses {
		n = minPasses
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(buildDir(), "tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	tmp, err = filepath.Abs(tmp)
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	var runs []childRun
	for i := 0; i < n; i++ {
		// Traced runs alternate untraced and traced passes so both
		// halves see the same drift of the host.
		traced := trace && i%2 == 1
		args := []string{"--child", "--workload", name, "--seed", strconv.FormatUint(seed, 10), "--tmp", tmp}
		if traced {
			args = append(args, "--traced", "--spans",
				filepath.Join(buildDir(), "spans", fmt.Sprintf("%s-seed%d-pass%d.jsonl", name, seed, i)))
		}
		cmd := exec.CommandContext(ctx, exe, append(args, "--spawned", strconv.FormatInt(time.Now().UnixNano(), 10))...)
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("pass %d: %w", i, err)
		}
		var res passResult
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("pass %d: bad report: %w", i, err)
		}
		ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		if !ok {
			return errors.New("no rusage for child process")
		}
		runs = append(runs, childRun{res: &res, traced: traced, rssMB: float64(ru.Maxrss) / 1024})
	}
	return report(os.Stdout, name, w, seed, seconds, trace, runs)
}
