package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"molcache"
	"molcache/internal/addr"
	"molcache/internal/workload"
)

// replay-mix12: Table 2's twelve-benchmark mix, captured once per
// process through the CMP substrate over the 1 MB 4-way reference L2,
// then replayed into fresh 6 MB molecular simulators (3x4 tiles, 8 KB
// molecules, Randy, Algorithm 1 AdaptiveGlobal at 25% goals, Table 2
// placements) in Simulator.AccessBatch windows. Every simulator starts
// empty, as in the paper's runs. An op is one simulated L2 access; the
// latency percentiles are per window.
const (
	// replayProcRefs processor references yield the L2 trace length
	// reported as cmp.l2_refs (about 1.35M accesses).
	replayProcRefs = 12_000_000
	// replayWindow is molsim's default -batch.
	replayWindow = 4096
	// replayWarmWindows are replayed into a throwaway simulator before
	// the timed passes.
	replayWarmWindows = 64
	// replayPasses is the number of timed replays per process; every
	// pass of the run adds one observation of each window.
	replayPasses = 4
	// replayCacheSeed is the simulators' replacement seed (the
	// experiments' default); --seed shapes only the captured inputs.
	replayCacheSeed = 2006
	replayGoal      = 0.25
)

// replayDigests are the recorded digests of the replayed end state
// (ledger, probe histogram, decision count) by input seed, taken at
// the program's state when the benchmark was defined. A seed without an
// entry is checked for agreement between passes only.
var replayDigests = map[uint64]string{
	defaultSeed: "bc4c1677a4a0170c",
	0:           "05cdd7db7973ceb3",
	1:           "e80ee1595dc84892",
	2:           "5f59f5c634f65904",
	3:           "143c04861bb7a576",
	4:           "34cc157e8f337177",
	5:           "e8160d4d5528dfe3",
	6:           "b56d4c8ed93ed8d1",
	7:           "b43ef11f7ffb81cb",
	8:           "14f1e372712862de",
	9:           "3ccdcb4919662442",
	10:          "a17be7aa764e05c8",
	11:          "57e5e1c38fb5ee39",
	12:          "279cbb7124aed2be",
}

// captureMix12 runs the mix over the reference L2 and returns the
// L1-miss stream.
func captureMix12(seed uint64) ([]molcache.Ref, error) {
	l2, err := molcache.NewTraditional(molcache.TraditionalConfig{Size: addr.MB, Ways: 4, LineSize: 64})
	if err != nil {
		return nil, err
	}
	sys, err := molcache.NewSystem(l2, molcache.SystemConfig{CaptureL1Misses: true})
	if err != nil {
		return nil, err
	}
	for i, name := range workload.MixedNames {
		asid := uint16(i + 1)
		gen, err := molcache.NewWorkload(name, uint64(asid)<<36, seed+uint64(asid)*1000)
		if err != nil {
			return nil, err
		}
		if err := sys.AddCore(asid, gen); err != nil {
			return nil, err
		}
	}
	sys.Run(replayProcRefs)
	return sys.Captured(), nil
}

// newMix12Sim builds the Table 2 molecular simulator with its
// placements, empty.
func newMix12Sim() (*molcache.Simulator, error) {
	mc, err := molcache.NewMolecular(molcache.MolecularConfig{
		TotalSize:       6 * addr.MB,
		MoleculeSize:    8 * addr.KB,
		LineSize:        64,
		TilesPerCluster: 4,
		Clusters:        3,
		Policy:          molcache.Randy,
		Seed:            replayCacheSeed,
	})
	if err != nil {
		return nil, err
	}
	goals := make(map[uint16]float64, len(workload.MixedNames))
	for i := range workload.MixedNames {
		asid := uint16(i + 1)
		goals[asid] = replayGoal
		if _, err := mc.CreateRegion(asid, molcache.RegionOptions{HomeCluster: i / 4, HomeTile: i % 4}); err != nil {
			return nil, err
		}
	}
	ctrl, err := molcache.NewController(mc, molcache.ResizeConfig{Trigger: molcache.AdaptiveGlobalTrigger, Goals: goals})
	if err != nil {
		return nil, err
	}
	return &molcache.Simulator{Cache: mc, Controller: ctrl}, nil
}

// simDigest fingerprints a replayed end state: the per-ASID ledger, the
// probe histogram and the decision count.
func simDigest(sim *molcache.Simulator) string {
	h := sha256.New()
	led := sim.Cache.Ledger()
	fmt.Fprintf(h, "total %d %d\n", led.Total.Hits, led.Total.Misses)
	for _, asid := range led.ASIDs() {
		hm := led.App(asid)
		fmt.Fprintf(h, "asid %d %d %d\n", asid, hm.Hits, hm.Misses)
	}
	ph := sim.Cache.ProbeHistogram()
	fmt.Fprintf(h, "probes %v %d %d\n", ph.Buckets, ph.Count, ph.Sum)
	fmt.Fprintf(h, "decisions %d\n", sim.Controller.DecisionCount())
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// replayPass is one timed replay into a fresh simulator.
type replayPass struct {
	wall    time.Duration
	windows []float64 // per-window latency, ns
	// Traced passes time every Access and Tick call as well: per-window
	// totals in ns, less the clock reads the timing itself costs.
	access, tick []float64
	mallocs      uint64
	digest       string
}

func runReplay(a passArgs) *passResult {
	res := newPassResult()
	root := a.spans.begin("replay-mix12", -1)
	t0 := time.Now()
	sp := a.spans.begin("cmp.capture", root)
	refs, err := captureMix12(a.seed)
	a.spans.end(sp)
	setup := time.Since(t0)
	if err != nil {
		res.fail("capture: %v", err)
		return res
	}
	res.set("setup_s", setup.Seconds(), 1)

	// Untimed warm-up, then a clean heap for the timed passes.
	warm, err := newMix12Sim()
	if err != nil {
		res.fail("simulator: %v", err)
		return res
	}
	for i := 0; i < replayWarmWindows*replayWindow && i < len(refs); i += replayWindow {
		warm.AccessBatch(refs[i:min(i+replayWindow, len(refs))])
	}
	runtime.GC()

	var passes []replayPass
	var last *molcache.Simulator
	for p := 0; p < replayPasses; p++ {
		sim, err := newMix12Sim()
		if err != nil {
			res.fail("simulator: %v", err)
			return res
		}
		var rp replayPass
		ps := a.spans.begin("replay.pass", root)
		if a.traced {
			rp = replayTraced(sim, refs, a.spans, ps)
		} else {
			rp = replayUntimed(sim, refs)
		}
		a.spans.end(ps)
		if v := sim.CheckInvariants(); len(v) != 0 {
			res.fail("pass %d: %d invariant violations, first: %v", p, len(v), v[0])
		}
		rp.digest = simDigest(sim)
		res.Attempted += int64(len(refs))
		passes = append(passes, rp)
		last = sim
		runtime.GC()
	}

	res.Digest = passes[0].digest
	for i, p := range passes {
		if p.digest != res.Digest {
			res.fail("pass %d digest %s differs from pass 0's %s", i, p.digest, res.Digest)
		}
	}
	if want, ok := replayDigests[a.seed]; ok && want != res.Digest {
		res.fail("digest %s, recorded %s for seed %d", res.Digest, want, a.seed)
	}
	if !res.Correct {
		res.Failed = res.Attempted
	}

	// This process's own view (the per-process diagnostics), and every
	// window's times for the run-level figures.
	n := float64(len(refs))
	nw := len(passes[0].windows)
	var walls, p50s, p90s, allocs []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		p50s = append(p50s, quantile(p.windows, 0.5)/1e3)
		p90s = append(p90s, quantile(p.windows, 0.9)/1e3)
		allocs = append(allocs, float64(p.mallocs)/n)
		res.observe("window_ns", p.windows)
		if a.traced {
			res.observe("access_ns", p.access)
			res.observe("tick_ns", p.tick)
		}
	}
	refsPer := make([]float64, nw)
	for i := range refsPer {
		refsPer[i] = float64(min(replayWindow, len(refs)-i*replayWindow))
	}
	res.observe("window_refs", refsPer)
	wall := median(walls)
	res.set("wall_s", wall, int64(len(passes)))
	res.set("ops_per_s", n/wall, int64(len(passes))*int64(len(refs)))
	res.set("p50_us", median(p50s), int64(len(passes)*nw))
	res.set("p90_us", median(p90s), int64(len(passes)*nw))

	res.set("cmp.l2_refs", n, 1)
	if a.traced {
		led := last.Cache.Ledger()
		res.set("cmp.capture_s", setup.Seconds(), 1)
		res.set("cmp.ns_per_proc_ref", float64(setup.Nanoseconds())/replayProcRefs, replayProcRefs)
		res.set("molecular.allocs_per_access", median(allocs), int64(len(passes))*int64(len(refs)))
		res.set("molecular.hit_ratio", led.Total.HitRate(), int64(led.Total.Accesses()))
		res.set("molecular.probes_per_access", last.Cache.AverageProbes(), int64(led.Total.Accesses()))
		res.set("resize.decisions", float64(last.Controller.DecisionCount()), 1)
	}
	a.spans.end(root)
	return res
}

// finishReplay: an op is one simulated L2 access, and the latency
// percentiles are over AccessBatch windows. Traced runs add the Access
// and Tick stage costs, reduced the same way, so they reconcile
// against ns_per_access.
func finishReplay(units map[string][]float64) map[string]float64 {
	sum := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s
	}
	ns, refs := sum(units["window_ns"]), sum(units["window_refs"])
	f := map[string]float64{
		"wall_s":        ns / 1e9,
		"ops_per_s":     refs / (ns / 1e9),
		"ns_per_access": ns / refs,
		"p50_us":        quantile(units["window_ns"], 0.5) / 1e3,
		"p90_us":        quantile(units["window_ns"], 0.9) / 1e3,
	}
	if access, ok := units["access_ns"]; ok {
		a, t := sum(access)/refs, sum(units["tick_ns"])/refs
		f["molecular.access_ns"] = a
		f["resize.tick_ns"] = t
		f["resize.share"] = t / (a + t)
		f["_stages"] = a + t
	}
	return f
}

// clockCost is the median cost of one time.Now call, which every
// interval a traced pass times also contains.
func clockCost() float64 {
	const calls = 1 << 14
	var rounds []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			time.Now()
		}
		rounds = append(rounds, float64(time.Since(t0))/calls)
	}
	return median(rounds)
}

// replayUntimed replays refs in AccessBatch windows, timing each window.
func replayUntimed(sim *molcache.Simulator, refs []molcache.Ref) replayPass {
	rp := replayPass{windows: make([]float64, 0, (len(refs)+replayWindow-1)/replayWindow)}
	start := time.Now()
	for i := 0; i < len(refs); i += replayWindow {
		w0 := time.Now()
		sim.AccessBatch(refs[i:min(i+replayWindow, len(refs))])
		rp.windows = append(rp.windows, float64(time.Since(w0)))
	}
	rp.wall = time.Since(start)
	return rp
}

// replayTraced does what Simulator.Access does — Cache.Access, then
// Controller.Tick — timing each call. Windows become spans, and every
// 512th reference's two calls are recorded as child spans. Each clock
// read ends one call's interval and starts the next, so the loop's own
// overhead is charged to Access; the cost of the clock read each
// interval contains is subtracted.
func replayTraced(sim *molcache.Simulator, refs []molcache.Ref, spans *spanLog, parent int32) replayPass {
	nw := (len(refs) + replayWindow - 1) / replayWindow
	rp := replayPass{windows: make([]float64, 0, nw), access: make([]float64, 0, nw), tick: make([]float64, 0, nw)}
	clock := clockCost()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	t0 := start
	for i := 0; i < len(refs); i += replayWindow {
		ws := spans.begin("replay.window", parent)
		w0 := t0
		var accessNs, tickNs time.Duration
		window := refs[i:min(i+replayWindow, len(refs))]
		for j, r := range window {
			sim.Cache.Access(r)
			t1 := time.Now()
			sim.Controller.Tick()
			t2 := time.Now()
			accessNs += t1.Sub(t0)
			tickNs += t2.Sub(t1)
			if j%512 == 0 {
				spans.add("molecular.access", ws, t0, t1)
				spans.add("resize.tick", ws, t1, t2)
			}
			t0 = t2
		}
		n := float64(len(window))
		rp.windows = append(rp.windows, float64(t0.Sub(w0)))
		rp.access = append(rp.access, float64(accessNs)-clock*n)
		rp.tick = append(rp.tick, float64(tickNs)-clock*n)
		spans.end(ws)
	}
	rp.wall = time.Since(start)
	runtime.ReadMemStats(&ms1)
	rp.mallocs = ms1.Mallocs - ms0.Mallocs
	return rp
}
