// Benchmarks regenerating every table and figure of the paper (run with
// `go test -bench=. -benchmem`), plus ablation benches for the design
// choices DESIGN.md calls out and micro-benchmarks of the hot paths.
//
// Reproduction benches report their headline quantity through
// b.ReportMetric (deviation, watts, advantage %) so a bench run doubles
// as a compact results table. They use reduced reference counts; the
// full-scale numbers in EXPERIMENTS.md come from cmd/experiments.
package molcache_test

import (
	"sync"
	"testing"

	"molcache"
	"molcache/internal/addr"
	"molcache/internal/cache"
	"molcache/internal/cmp"
	"molcache/internal/experiments"
	"molcache/internal/molecular"
	"molcache/internal/resize"
	"molcache/internal/trace"
	"molcache/internal/workload"
)

// benchOpts trims the experiments to benchmark-friendly sizes.
var benchOpts = experiments.Options{ProcessorRefs: 4_000_000, Seed: 2006}

// BenchmarkTable1 regenerates the interference study (11 workload
// combinations on a shared 1MB 4-way L2).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		quad := rows[len(rows)-1]
		b.ReportMetric(quad.MissRate["art"], "art-all4-missrate")
		alone, _ := experiments.Standalone(rows, "art")
		b.ReportMetric(alone, "art-alone-missrate")
	}
}

// BenchmarkFigure5 regenerates the deviation-vs-size study (24 cache
// configurations, one captured trace).
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.Figure5(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.Config == "Molecular (Randy)" && p.Size == 8*addr.MB {
				b.ReportMetric(p.DeviationA, "randy-8MB-devA")
				b.ReportMetric(p.DeviationB, "randy-8MB-devB")
			}
		}
	}
}

// table2Cached computes the Table 2 result once per bench process; the
// downstream benches (Figure 6, Tables 4-5, headline) reuse it the same
// way the paper's pipeline does.
var table2Cached = sync.OnceValues(func() (*experiments.Table2Result, error) {
	return experiments.Table2(benchOpts)
})

// BenchmarkTable2 regenerates the mixed-workload deviation table.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t2, err := experiments.Table2(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range t2.Rows {
			if r.Name == "6MB Molecular (Randy)" {
				b.ReportMetric(r.Deviation, "molecular-deviation")
			}
			if r.Name == "8MB 8-way" {
				b.ReportMetric(r.Deviation, "8MB8way-deviation")
			}
		}
	}
}

// BenchmarkFigure6 regenerates the hits-per-molecule comparison.
func BenchmarkFigure6(b *testing.B) {
	t2, err := table2Cached()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f6 := experiments.Figure6(t2)
		b.ReportMetric(f6.RandyMissRate, "randy-missrate")
		b.ReportMetric(f6.RandomMissRate, "random-missrate")
	}
}

// BenchmarkTable4 regenerates the power table (CACTI-style model plus a
// measured-probe molecular run).
func BenchmarkTable4(b *testing.B) {
	t2, err := table2Cached()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t4, err := experiments.Table4(benchOpts, t2)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range t4.Rows {
			if r.Name == "8MB 8-way" {
				b.ReportMetric(r.PowerW, "trad-8way-W")
				b.ReportMetric(r.MolWorstW, "mol-worst-W")
			}
		}
	}
}

// BenchmarkTable5 regenerates the power-deviation products.
func BenchmarkTable5(b *testing.B) {
	t2, err := table2Cached()
	if err != nil {
		b.Fatal(err)
	}
	t4, err := experiments.Table4(benchOpts, t2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table5(benchOpts, t2, t4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].MolPD, "mol-power-deviation")
		b.ReportMetric(rows[len(rows)-1].TradPD, "trad-power-deviation")
	}
}

// BenchmarkHeadline regenerates the paper's abstract claim (the power
// advantage over the equivalently performing traditional cache).
func BenchmarkHeadline(b *testing.B) {
	t2, err := table2Cached()
	if err != nil {
		b.Fatal(err)
	}
	t4, err := experiments.Table4(benchOpts, t2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := experiments.ComputeHeadline(t2, t4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(h.AdvantagePct, "power-advantage-%")
	}
}

// benchSweepOpts is a reduced reference sweep for the scheduler benches:
// a 12-point grid over one captured trace. Jobs is set per benchmark.
func benchSweepOpts(jobs int) experiments.SweepOptions {
	return experiments.SweepOptions{
		ProcessorRefs: 1_000_000,
		Seed:          2006,
		Sizes:         []uint64{1 * addr.MB, 2 * addr.MB},
		MoleculeSizes: []uint64{8 * addr.KB, 16 * addr.KB},
		Policies: []molecular.ReplacementKind{
			molecular.RandomReplacement, molecular.RandyReplacement, molecular.LRUDirect,
		},
		Jobs: jobs,
	}
}

// BenchmarkSweepSerial runs the reference sweep with the worker pool in
// serial mode (-jobs 1): the byte-identical baseline.
func BenchmarkSweepSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Sweep(benchSweepOpts(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepParallel runs the same sweep fanned across GOMAXPROCS
// workers. Compare ns/op against BenchmarkSweepSerial for the wall-clock
// speedup (the trace capture is serial in both, so the ratio understates
// the replay phase's scaling).
func BenchmarkSweepParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Sweep(benchSweepOpts(0)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Ablation benches (DESIGN.md section 5).
// ---------------------------------------------------------------------

// ablationTrace captures one 12-benchmark L1-miss trace for the
// ablations and BenchmarkTraditionalAccess/mix12-replay.
var ablationTrace = sync.OnceValue(func() []trace.Ref {
	refs, err := cmp.CaptureMix(workload.MixedNames, 6_000_000, 2006)
	if err != nil {
		panic(err)
	}
	return refs
})

// replayAblation replays the shared trace into one molecular config and
// reports the average deviation from the 25% goal.
func replayAblation(b *testing.B, mcfg molecular.Config, rcfg resize.Config) {
	refs := ablationTrace()
	goals := molcache.Goals{}
	rcfg.Goals = map[uint16]float64{}
	for i := range workload.MixedNames {
		goals[uint16(i+1)] = 0.25
		rcfg.Goals[uint16(i+1)] = 0.25
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc := molecular.MustNew(mcfg)
		ctrl := resize.MustNew(mc, rcfg)
		for _, r := range refs {
			mc.Access(r)
			ctrl.Tick()
		}
		b.ReportMetric(molcache.AverageDeviation(mc.Ledger(), goals), "deviation")
		b.ReportMetric(mc.AverageProbes(), "probes/access")
	}
	b.SetBytes(int64(len(refs)))
}

// sixMB returns the paper's 6MB mixed-workload molecular config.
func sixMB(policy molecular.ReplacementKind) molecular.Config {
	return molecular.Config{
		TotalSize: 6 * addr.MB, Clusters: 3, TilesPerCluster: 4,
		Policy: policy, Seed: 2006,
	}
}

// BenchmarkAblationPolicy compares the molecule-selection policies,
// including the future-work LRU-Direct scheme.
func BenchmarkAblationPolicy(b *testing.B) {
	for _, policy := range []molecular.ReplacementKind{
		molecular.RandomReplacement, molecular.RandyReplacement, molecular.LRUDirect,
	} {
		b.Run(string(policy), func(b *testing.B) {
			replayAblation(b, sixMB(policy), resize.Config{})
		})
	}
}

// BenchmarkAblationMoleculeSize compares 8/16/32KB molecules (the
// paper's stated building-block range).
func BenchmarkAblationMoleculeSize(b *testing.B) {
	for _, size := range []uint64{8 * addr.KB, 16 * addr.KB, 32 * addr.KB} {
		b.Run(addr.Bytes(size), func(b *testing.B) {
			cfg := sixMB(molecular.RandyReplacement)
			cfg.MoleculeSize = size
			replayAblation(b, cfg, resize.Config{})
		})
	}
}

// BenchmarkAblationResizeTrigger compares constant, adaptive-global and
// adaptive-per-app resize scheduling.
func BenchmarkAblationResizeTrigger(b *testing.B) {
	for _, trig := range []resize.TriggerKind{
		resize.Constant, resize.AdaptiveGlobal, resize.AdaptivePerApp,
	} {
		b.Run(string(trig), func(b *testing.B) {
			replayAblation(b, sixMB(molecular.RandyReplacement),
				resize.Config{Trigger: trig})
		})
	}
}

// BenchmarkAblationInitialAllocation compares the paper's "Ground Zero"
// choices: tiny (2 molecules), half tile (the paper's pick), full tile.
func BenchmarkAblationInitialAllocation(b *testing.B) {
	for _, init := range []struct {
		name string
		n    int
	}{{"2-molecules", 2}, {"half-tile", 32}, {"full-tile", 64}} {
		b.Run(init.name, func(b *testing.B) {
			cfg := sixMB(molecular.RandyReplacement)
			cfg.InitialMolecules = init.n
			replayAblation(b, cfg, resize.Config{})
		})
	}
}

// BenchmarkAblationLineFactor compares variable line sizes (k lines per
// miss) on the streaming-heavy media benchmarks, where spatial locality
// should reward larger fetch units.
func BenchmarkAblationLineFactor(b *testing.B) {
	for _, k := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "64B", 2: "128B", 4: "256B"}[k], func(b *testing.B) {
			cfg := sixMB(molecular.RandyReplacement)
			cfg.LineFactor = k
			replayAblation(b, cfg, resize.Config{})
		})
	}
}

// ---------------------------------------------------------------------
// Micro-benchmarks of the hot paths.
// ---------------------------------------------------------------------

// BenchmarkMolecularAccess measures one molecular-cache lookup+fill.
func BenchmarkMolecularAccess(b *testing.B) {
	mc := molecular.MustNew(molecular.Config{TotalSize: 2 * addr.MB, Seed: 1})
	gen := workload.MustNew("gcc", 1<<36, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := gen.Next()
		k := trace.Read
		if a.Write {
			k = trace.Write
		}
		mc.Access(trace.Ref{Addr: a.Addr, ASID: 1, Kind: k})
	}
}

// BenchmarkMolecularAccessTelemetry measures the telemetry tax on the
// molecular access path: "disabled" is the default nil-attachment state
// (must stay within a few percent of BenchmarkMolecularAccess — the
// path pays two pointer checks), "metrics" adds the counter increments,
// and "metrics+trace" adds ring-buffered event emission.
func BenchmarkMolecularAccessTelemetry(b *testing.B) {
	run := func(b *testing.B, attach func(*molecular.Cache)) {
		mc := molecular.MustNew(molecular.Config{TotalSize: 2 * addr.MB, Seed: 1})
		if attach != nil {
			attach(mc)
		}
		gen := workload.MustNew("gcc", 1<<36, 7)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := gen.Next()
			k := trace.Read
			if a.Write {
				k = trace.Write
			}
			mc.Access(trace.Ref{Addr: a.Addr, ASID: 1, Kind: k})
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, nil) })
	b.Run("metrics", func(b *testing.B) {
		run(b, func(mc *molecular.Cache) {
			mc.AttachTelemetry(nil, molcache.NewRegistry())
		})
	})
	b.Run("metrics+trace", func(b *testing.B) {
		run(b, func(mc *molecular.Cache) {
			mc.AttachTelemetry(molcache.NewTracer(0), molcache.NewRegistry())
		})
	})
}

// BenchmarkTraditionalAccess measures one set-associative lookup+fill.
// gcc feeds a 2 MB 8-way cache one ASID from its generator; mix12-replay
// loops the twelve-app L1-miss capture through the 1 MB 4-way L2 it was
// captured on, so a per-access cost that depends on interleaved ASIDs
// (as Figure 5's and Table 2's replays interleave them) shows.
func BenchmarkTraditionalAccess(b *testing.B) {
	b.Run("gcc", func(b *testing.B) {
		c := cache.MustNew(cache.Config{Size: 2 * addr.MB, Ways: 8, LineSize: 64})
		gen := workload.MustNew("gcc", 1<<36, 7)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a := gen.Next()
			k := trace.Read
			if a.Write {
				k = trace.Write
			}
			c.Access(trace.Ref{Addr: a.Addr, ASID: 1, Kind: k})
		}
	})
	b.Run("mix12-replay", func(b *testing.B) {
		refs := ablationTrace()
		c := cache.MustNew(cache.Config{Size: addr.MB, Ways: 4, LineSize: 64})
		b.ReportAllocs()
		b.ResetTimer()
		for i, j := 0, 0; i < b.N; i++ {
			c.Access(refs[j])
			if j++; j == len(refs) {
				j = 0
			}
		}
	})
}

// BenchmarkWorkloadGeneration measures the reference generators.
func BenchmarkWorkloadGeneration(b *testing.B) {
	for _, name := range []string{"art", "mcf", "parser", "CRC"} {
		b.Run(name, func(b *testing.B) {
			gen := workload.MustNew(name, 0, 1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				gen.Next()
			}
		})
	}
}

// BenchmarkCMPStep measures the full CMP substrate pipeline (generator ->
// L1 -> coherence -> L2) per reference over the 1 MB 4-way L2, each
// mix built by AddMix at seed 2006: mcf alone (Table 1's longest job, a
// memory-bound core that stalls 200 cycles per L2 miss), the four SPEC
// cores of Table 1's last row, and the replay benchmark's set-up (the
// twelve-app mixed workload with L1-miss capture on).
func BenchmarkCMPStep(b *testing.B) {
	for _, bc := range []struct {
		name    string
		apps    []string
		capture bool
	}{
		{"mcf-alone", []string{"mcf"}, false},
		{"spec4", workload.SPECNames[:4], false},
		{"mix12-capture", workload.MixedNames, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			l2 := cache.MustNew(cache.Config{Size: 1 * addr.MB, Ways: 4, LineSize: 64})
			sys, err := molcache.NewSystem(l2, molcache.SystemConfig{CaptureL1Misses: bc.capture})
			if err != nil {
				b.Fatal(err)
			}
			if err := sys.AddMix(bc.apps, 2006); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.Step()
			}
		})
	}
}

// BenchmarkCaptureMix captures the twelve-app mixed workload's L1-miss
// stream, 2M processor references at seed 2006 over the 1 MB 4-way L2,
// two ways: cmp.System stepping every reference, and cmp.RunMix's two
// stages. One op is a whole capture; ns/ref divides it by the processor
// references.
func BenchmarkCaptureMix(b *testing.B) {
	const refs = 2_000_000
	run := func(b *testing.B, capture func(l2 *cache.Cache) ([]trace.Ref, error)) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l2 := cache.MustNew(cache.Config{Size: 1 * addr.MB, Ways: 4, LineSize: 64})
			if _, err := capture(l2); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/refs, "ns/ref")
	}
	b.Run("system", func(b *testing.B) {
		run(b, func(l2 *cache.Cache) ([]trace.Ref, error) {
			sys := cmp.New(l2, cmp.Config{CaptureL1Misses: true})
			if err := sys.AddMix(workload.MixedNames, 2006); err != nil {
				return nil, err
			}
			sys.Run(refs)
			return sys.Captured(), nil
		})
	})
	b.Run("runmix", func(b *testing.B) {
		run(b, func(l2 *cache.Cache) ([]trace.Ref, error) {
			return cmp.RunMix(l2, workload.MixedNames, refs, 2006, true)
		})
	})
}

// BenchmarkPowerModel measures one full organization search.
func BenchmarkPowerModel(b *testing.B) {
	g := molcache.PowerGeometry{SizeBytes: 8 * addr.MB, Assoc: 4, LineBytes: 64, Ports: 4}
	for i := 0; i < b.N; i++ {
		if _, err := molcache.EstimatePower(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRelatedWork regenerates the related-work comparison (shared
// LRU vs ModifiedLRU vs column caching vs home banks vs molecular).
func BenchmarkRelatedWork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RelatedWork(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Name == "2MB Molecular (Random)" {
				b.ReportMetric(r.Deviation, "molecular-deviation")
			}
			if r.Name == "2MB 8-way ColumnCache" {
				b.ReportMetric(r.Deviation, "columns-deviation")
			}
		}
	}
}
