package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
)

// metricOut is one metric of the final JSON line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the final JSON line; it has exactly these keys.
type summary struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// hostBlock describes the machine a result was measured on.
func hostBlock() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version())
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// figures are a set of passes reduced to one value per metric, with the
// number of observations behind each.
type figures struct {
	val     map[string]float64
	samples map[string]int64
}

// reduce turns runs into figures: every metric the children report is
// the median over the passes (peak_rss_mb from the kernel's account of
// each child), then the workload's finish overrides the figures it
// derives from the units, each reduced to the workload's unitQuantile
// of its observations.
func reduce(wl benchWorkload, runs []childRun) (figures, error) {
	f := figures{val: map[string]float64{}, samples: map[string]int64{}}
	if len(runs) == 0 {
		return f, nil
	}
	vals := map[string][]float64{}
	for _, r := range runs {
		for k, v := range r.res.Metrics {
			vals[k] = append(vals[k], v)
			f.samples[k] += r.res.Samples[k]
		}
		vals["peak_rss_mb"] = append(vals["peak_rss_mb"], r.rssMB)
		f.samples["peak_rss_mb"]++
	}
	for k, v := range vals {
		f.val[k] = median(v)
	}

	units := map[string][]float64{}
	var observed int64 // unit observations behind the derived figures
	for name := range runs[0].res.Series {
		var obs [][]float64
		for _, r := range runs {
			obs = append(obs, r.res.Series[name]...)
		}
		observed = max(observed, int64(len(obs)*len(obs[0])))
		u := make([]float64, len(obs[0]))
		col := make([]float64, len(obs))
		for j := range u {
			for i, o := range obs {
				if len(o) != len(u) {
					return f, fmt.Errorf("series %s: an observation has %d units, another %d", name, len(o), len(u))
				}
				col[i] = o[j]
			}
			u[j] = quantile(col, wl.unitQuantile)
		}
		units[name] = u
	}
	for k, v := range wl.finish(units) {
		f.val[k] = v
		f.samples[k] = observed
	}
	return f, nil
}

// report checks the passes against each other, prints every metric
// with its unit and sample count, and ends with the JSON line.
func report(w io.Writer, name string, wl benchWorkload, seed uint64, seconds int, trace bool, runs []childRun) error {
	fmt.Fprintf(w, "# molbench workload=%s seed=%d seconds=%d trace=%v passes=%d (one fresh process each)\n",
		name, seed, seconds, trace, len(runs))
	fmt.Fprintf(w, "# why: %s\n", wl.why)
	fmt.Fprintf(w, "# host: %s\n", hostBlock())
	if strings.HasPrefix(name, "serve-") {
		fmt.Fprintf(w, "# journal: %s\n", journalPolicy)
	}

	out := summary{Correct: true, Metrics: map[string]metricOut{}}
	var untraced, traced []childRun
	for i, r := range runs {
		out.Attempted += r.res.Attempted
		out.Failed += r.res.Failed
		if !r.res.Correct {
			out.Correct = false
		}
		for _, e := range r.res.Errors {
			fmt.Fprintf(w, "# pass %d: FAILED CHECK: %s\n", i, e)
		}
		// Every pass runs the same inputs, so every output digest must
		// agree.
		if r.res.Digest != runs[0].res.Digest {
			out.Correct = false
			fmt.Fprintf(w, "# pass %d: FAILED CHECK: digest %s, pass 0 has %s\n", i, r.res.Digest, runs[0].res.Digest)
		}
		if r.traced {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Failed = 1
		out.Correct = false
	}
	fmt.Fprintf(w, "# digest: %s\n", runs[0].res.Digest)

	e2e, err := reduce(wl, untraced)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# per process in brackets; ops_per_s, wall_s, p50_us and p90_us reduce each unit to its %g-quantile over the run\n", wl.unitQuantile)
	for _, m := range endToEnd {
		fmt.Fprintf(w, "%-28s %14.6g %-6s passes=%d samples=%d%s\n", m.name, e2e.val[m.name], m.unit,
			len(untraced), e2e.samples[m.name], perPass(untraced, m.name))
	}
	// Diagnostics: served tails (p99.9 is the 4 ms scheduler tick on the
	// reference box, so the gated tail is p90) and the replayed trace
	// length that ops_per_s is stated at.
	for _, d := range []metricDef{{"p99_us", "us"}, {"p999_us", "us"}, {"cmp.l2_refs", "count"}} {
		if v, ok := e2e.val[d.name]; ok {
			fmt.Fprintf(w, "%-28s %14.6g %-6s diagnostic, median over passes, samples=%d%s\n", d.name, v, d.unit,
				e2e.samples[d.name], perPass(untraced, d.name))
		}
	}
	fmt.Fprintf(w, "%-28s %14.6g %-6s (%d of %d operations)\n", "fail_ratio",
		float64(out.Failed)/float64(out.Attempted), "ratio", out.Failed, out.Attempted)

	if !trace {
		for _, m := range endToEnd {
			out.Metrics[m.name] = metricOut{Value: finite(e2e.val[m.name]), Unit: m.unit}
		}
		return writeSummary(w, out)
	}

	layer, err := reduce(wl, traced)
	if err != nil {
		return err
	}
	base, tracedFig := e2e.val[wl.primary], layer.val[wl.primary]
	if base != 0 {
		layer.val["trace.overhead_ratio"] = (tracedFig - base) / base
		layer.samples["trace.overhead_ratio"] = int64(len(runs))
	}
	fmt.Fprintf(w, "# tracing overhead on %s: untraced %.6g, traced %.6g, traced minus untraced %.6g\n",
		wl.primary, base, tracedFig, tracedFig-base)
	if stages, ok := layer.val["_stages"]; ok {
		res := "replay.residual_ns"
		if strings.HasPrefix(name, "serve-") {
			res = "server.residual_us"
		}
		layer.val[res] = base - stages
		layer.samples[res] = layer.samples["_stages"]
		fmt.Fprintf(w, "# reconciliation: untraced %s %.6g = traced stages %.6g + residual %.6g\n",
			wl.primary, base, stages, base-stages)
	}
	for _, m := range perLayer {
		fmt.Fprintf(w, "%-28s %14.6g %-6s passes=%d samples=%d\n", m.name, layer.val[m.name], m.unit,
			len(traced), layer.samples[m.name])
		out.Metrics[m.name] = metricOut{Value: finite(layer.val[m.name]), Unit: m.unit}
	}
	return writeSummary(w, out)
}

// perPass lists a metric's value in each pass.
func perPass(runs []childRun, name string) string {
	var b strings.Builder
	b.WriteString(" [")
	for i, r := range runs {
		v, ok := r.res.Metrics[name]
		if name == "peak_rss_mb" {
			v, ok = r.rssMB, true
		}
		if !ok {
			return ""
		}
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.4g", v)
	}
	b.WriteByte(']')
	return b.String()
}

// finite maps NaN and infinities, which JSON cannot carry, to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func writeSummary(w io.Writer, s summary) error {
	b, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
