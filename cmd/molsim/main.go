// Command molsim runs a workload mix (or a recorded trace) through one
// cache configuration and reports per-application miss rates, QoS
// deviations and (for molecular caches) partition layouts.
//
// Usage:
//
//	molsim -cache 1MB:4 -mix art,mcf -refs 4000000
//	molsim -cache molecular:6MB:3x4:Randy -mix crafty,CRC,DRR -goal 0.25
//	molsim -cache molecular:2MB:1x4:Random -trace l2refs.mtr
//
// -cache accepts either "SIZE:WAYS" for a traditional set-associative
// cache or "molecular:SIZE:CLUSTERSxTILES:POLICY" for a molecular cache.
// With -mix, the workloads run on the CMP substrate (private L1s filter
// the reference stream, as in the paper's methodology); with -trace, a
// binary trace recorded by tracegen is replayed directly into the cache.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"molcache/internal/addr"
	"molcache/internal/cache"
	"molcache/internal/cmp"
	"molcache/internal/engine"
	"molcache/internal/faults"
	"molcache/internal/metrics"
	"molcache/internal/molecular"
	"molcache/internal/obs"
	"molcache/internal/resize"
	"molcache/internal/stats"
	"molcache/internal/tabletext"
	"molcache/internal/telemetry"
	"molcache/internal/trace"
	"molcache/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("molsim: ")
	cacheSpec := flag.String("cache", "1MB:4", "cache spec: SIZE:WAYS or molecular:SIZE:CxT:POLICY")
	mix := flag.String("mix", "", "comma-separated workload names (see -list)")
	traceIn := flag.String("trace", "", "binary trace file to replay instead of -mix")
	refs := flag.Int("refs", 4_000_000, "processor references to drive (with -mix)")
	goal := flag.Float64("goal", 0.10, "miss-rate goal for every application")
	seed := flag.Uint64("seed", 2006, "simulation seed")
	list := flag.Bool("list", false, "list available workloads and exit")
	faultsPath := flag.String("faults", "", "fault campaign JSON to inject (molecular caches only)")
	checkEvery := flag.Uint64("check-invariants", 0, "audit structural invariants every N L2 accesses (0 disables)")
	var obsFlags obs.Flags
	obsFlags.Register(flag.CommandLine)
	publishEvery := flag.Uint64("publish-every", 65536, "with -serve, refresh the introspection snapshot every N L2 accesses")
	serveLinger := flag.Duration("serve-linger", 0, "with -serve, keep the introspection server up this long after the run completes")
	explainResize := flag.Bool("explain-resize", false, "print the tail of the resize decision log after the run (molecular caches only)")
	var prof telemetry.ProfileConfig
	// -trace already means "binary trace to replay", so the execution
	// trace takes the -exectrace name here.
	prof.RegisterFlagsNamed(flag.CommandLine, "cpuprofile", "memprofile", "exectrace")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(workload.Names(), "\n"))
		return
	}

	stopProf, err := prof.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			log.Print(err)
		}
	}()

	pipe, err := obsFlags.Setup()
	if err != nil {
		log.Fatal(err)
	}
	defer pipe.Close()

	l2, mol, err := buildCache(*cacheSpec, *seed)
	if err != nil {
		log.Fatal(err)
	}
	if *faultsPath != "" {
		if mol == nil {
			log.Fatal("-faults requires a molecular cache")
		}
		camp, err := faults.Load(*faultsPath)
		if err != nil {
			log.Fatal(err)
		}
		inj, err := faults.NewInjector(camp)
		if err != nil {
			log.Fatal(err)
		}
		if err := mol.AttachFaults(inj); err != nil {
			log.Fatal(err)
		}
	}
	var ctrl *resize.Controller
	if mol != nil {
		ctrl, err = resize.New(mol, resize.Config{DefaultGoal: *goal})
		if err != nil {
			log.Fatal(err)
		}
	}
	if pipe.Tracer != nil || pipe.Registry != nil {
		if mol != nil {
			mol.AttachTelemetry(pipe.Tracer, pipe.Registry)
		} else if tc, ok := l2.(*cache.Cache); ok {
			tc.AttachTelemetry(pipe.Registry)
		}
		if ctrl != nil {
			ctrl.AttachTelemetry(pipe.Tracer, pipe.Registry)
		}
	}
	if pipe.Server != nil {
		log.Printf("introspection server on http://%s", pipe.Server.Addr())
	}

	// Per-access hooks run from the simulation goroutine, after the
	// resize controller's tick: with -check-invariants, audit the
	// molecular cache every N accesses; with -serve, republish the
	// introspection snapshot every -publish-every accesses (handlers
	// never touch live state).
	var hooks []func()
	chk := newAuditor(mol, *checkEvery)
	if chk != nil {
		hooks = append(hooks, chk.tick)
	}
	if pipe.Publisher != nil {
		every := *publishEvery
		if every == 0 {
			every = 1
		}
		var accesses uint64
		hooks = append(hooks, func() {
			accesses++
			if accesses%every == 0 {
				pipe.Publish(mol, ctrl)
			}
		})
		// The initial publish makes the endpoints meaningful before the
		// first interval elapses.
		pipe.Publish(mol, ctrl)
	}
	var onAccess func()
	if len(hooks) > 0 {
		hs := hooks
		onAccess = func() {
			for _, h := range hs {
				h()
			}
		}
	}

	var (
		asids []uint16
		names map[uint16]string
	)
	switch {
	case *traceIn != "":
		asids, names, err = replayTrace(*traceIn, l2, ctrl, onAccess)
		if err != nil {
			log.Fatal(err)
		}
	case *mix != "":
		asids, names, err = runMix(*mix, l2, ctrl, *refs, *seed, onAccess)
		if err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatal("need -mix or -trace (or -list)")
	}
	if chk != nil {
		chk.run() // final audit after the last access
	}
	pipe.Publish(mol, ctrl) // final snapshot for lingering servers

	report(l2, mol, ctrl, asids, names, *goal)
	if *explainResize {
		explainResizeLog(ctrl, names)
	}
	ok := reportFaults(mol, chk)
	if pipe.Server != nil && *serveLinger > 0 {
		log.Printf("lingering on http://%s for %s", pipe.Server.Addr(), *serveLinger)
		time.Sleep(*serveLinger)
	}
	if !ok {
		pipe.Close()
		stopProf()
		os.Exit(1)
	}
}

// explainResizeTail is how many trailing decisions -explain-resize
// prints; the full log is available over -serve at /decisions.
const explainResizeTail = 50

// explainResizeLog prints the tail of the controller's decision log:
// every Algorithm 1 evaluation with its inputs, the action taken and
// the reason the controller chose it.
func explainResizeLog(ctrl *resize.Controller, names map[uint16]string) {
	if ctrl == nil {
		log.Print("-explain-resize requires a molecular cache with a resize controller")
		return
	}
	decs := ctrl.Decisions()
	total := ctrl.DecisionCount()
	if len(decs) == 0 {
		fmt.Println("resize decisions: none recorded")
		return
	}
	if len(decs) > explainResizeTail {
		decs = decs[len(decs)-explainResizeTail:]
	}
	fmt.Printf("resize decisions (last %d of %d):\n", len(decs), total)
	for _, d := range decs {
		app := names[d.ASID]
		if app == "" {
			app = fmt.Sprintf("asid%d", d.ASID)
		}
		fmt.Printf("  #%-5d @%-9d %-8s miss %.3f vs goal %.3f  %-11s %+3d -> %3d  %s\n",
			d.Seq, d.At, app, d.MissRate, d.Goal, d.Action, d.Delta, d.SizeAfter, d.Reason)
	}
}

// buildCache parses the -cache spec.
func buildCache(spec string, seed uint64) (engine.Cache, *molecular.Cache, error) {
	parts := strings.Split(spec, ":")
	if strings.EqualFold(parts[0], "molecular") {
		cfg, err := molecular.ParseSpec(spec, seed)
		if err != nil {
			return nil, nil, err
		}
		mc, err := molecular.New(cfg)
		if err != nil {
			return nil, nil, err
		}
		return mc, mc, nil
	}
	if len(parts) != 2 {
		return nil, nil, fmt.Errorf("traditional spec needs SIZE:WAYS, got %q", spec)
	}
	size, err := addr.ParseBytes(parts[0])
	if err != nil {
		return nil, nil, err
	}
	ways, err := strconv.Atoi(parts[1])
	if err != nil {
		return nil, nil, fmt.Errorf("bad ways %q", parts[1])
	}
	c, err := cache.New(cache.Config{Size: size, Ways: ways, LineSize: 64})
	if err != nil {
		return nil, nil, err
	}
	return c, nil, nil
}

// runMix drives the CMP substrate over the shared cache. onAccess,
// when non-nil, runs after every L2 access (the per-access hooks).
func runMix(mix string, l2 engine.Cache, ctrl *resize.Controller,
	refs int, seed uint64, onAccess func()) ([]uint16, map[uint16]string, error) {
	sys := cmp.New(l2, cmp.Config{})
	if ctrl != nil || onAccess != nil {
		sys.OnL2Access = func(trace.Ref, engine.Result) {
			if ctrl != nil {
				ctrl.Tick()
			}
			if onAccess != nil {
				onAccess()
			}
		}
	}
	apps := strings.Split(mix, ",")
	var asids []uint16
	names := map[uint16]string{}
	for i := range apps {
		apps[i] = strings.TrimSpace(apps[i])
		asid := uint16(i + 1)
		asids = append(asids, asid)
		names[asid] = apps[i]
	}
	if err := sys.AddMix(apps, seed); err != nil {
		return nil, nil, err
	}
	if err := sys.Run(refs); err != nil {
		return nil, nil, err
	}
	return asids, names, nil
}

// auditor is the -check-invariants hook: it runs the molecular cache's
// structural audit every `every` accesses and keeps what it found.
type auditor struct {
	mol        *molecular.Cache
	every      uint64
	ticks      uint64
	runs       uint64
	violations []molecular.Violation
}

// newAuditor builds the -check-invariants auditor; nil when checkEvery
// is 0 or the cache is traditional.
func newAuditor(mol *molecular.Cache, checkEvery uint64) *auditor {
	if checkEvery == 0 {
		return nil
	}
	if mol == nil {
		log.Print("-check-invariants audits molecular caches only; skipping")
		return nil
	}
	return &auditor{mol: mol, every: checkEvery}
}

// tick counts one access and audits on every every-th.
func (a *auditor) tick() {
	a.ticks++
	if a.ticks%a.every == 0 {
		a.run()
	}
}

// run audits now.
func (a *auditor) run() {
	a.runs++
	a.violations = append(a.violations, a.mol.CheckInvariants()...)
}

// summary renders the audit totals with a count per broken rule.
func (a *auditor) summary() string {
	counts := make(map[string]int)
	for _, v := range a.violations {
		counts[v.Rule]++
	}
	rules := make([]string, 0, len(counts))
	for r := range counts {
		rules = append(rules, r)
	}
	sort.Strings(rules)
	out := fmt.Sprintf("%d audits, %d violations:", a.runs, len(a.violations))
	for _, r := range rules {
		out += fmt.Sprintf(" %s=%d", r, counts[r])
	}
	return out
}

// replayTrace feeds a recorded binary trace straight into the cache.
// onAccess, when non-nil, runs after every access (the per-access
// hooks). Only a clean end of the trace ends the replay: a damaged trace
// (a record cut short, an unknown kind byte, a read error) is an error
// naming the file, not a report on the prefix before the damage.
func replayTrace(path string, l2 engine.Cache, ctrl *resize.Controller,
	onAccess func()) ([]uint16, map[uint16]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	seen := map[uint16]bool{}
	var asids []uint16
	for {
		ref, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		l2.Access(ref)
		if ctrl != nil {
			ctrl.Tick()
		}
		if onAccess != nil {
			onAccess()
		}
		if !seen[ref.ASID] {
			seen[ref.ASID] = true
			asids = append(asids, ref.ASID)
		}
	}
	names := map[uint16]string{}
	for _, a := range asids {
		names[a] = fmt.Sprintf("asid%d", a)
	}
	return asids, names, nil
}

// report prints per-application results and molecular internals.
func report(l2 engine.Cache, mol *molecular.Cache, ctrl *resize.Controller,
	asids []uint16, names map[uint16]string, goal float64) {
	var ledger *stats.Ledger
	switch c := l2.(type) {
	case *cache.Cache:
		ledger = c.Ledger()
	case *molecular.Cache:
		ledger = c.Ledger()
	default:
		log.Fatal("unknown cache type")
	}

	t := tabletext.New(fmt.Sprintf("%s — per-application results", l2.Name()),
		"app", "accesses", "miss rate", "excess over goal")
	goals := metrics.Goals{}
	for _, a := range asids {
		goals[a] = goal
	}
	for _, d := range metrics.Deviations(ledger, goals) {
		t.AddRow(names[d.ASID],
			fmt.Sprintf("%d", ledger.App(d.ASID).Accesses()),
			fmt.Sprintf("%.4f", d.MissRate),
			fmt.Sprintf("%.4f", d.Excess))
	}
	fmt.Println(t)
	fmt.Printf("overall miss rate: %.4f   average deviation: %.4f\n",
		ledger.Total.MissRate(), metrics.AverageDeviation(ledger, goals))

	if mol == nil {
		return
	}
	fmt.Printf("average molecules probed per access: %.1f (of %d total)\n",
		mol.AverageProbes(), mol.TotalMolecules())
	pt := tabletext.New("partitions", "app", "molecules", "rows (replacement view)")
	for _, r := range mol.Regions() {
		pt.AddRow(names[r.ASID()],
			fmt.Sprintf("%d", r.MoleculeCount()),
			fmt.Sprintf("%v", r.Rows()))
	}
	fmt.Println(pt)
	if ctrl != nil {
		fmt.Printf("resize passes: %d decisions, %d daemon cycles\n",
			ctrl.DecisionCount(), ctrl.CyclesSpent())
	}
}

// reportFaults prints the fault-injection and invariant-audit sections.
// It returns false when the run must exit nonzero: an invariant audit
// found violations, or scheduled molecule failures were never delivered.
func reportFaults(mol *molecular.Cache, chk *auditor) bool {
	ok := true
	if mol != nil && mol.Faults() != nil {
		inj := mol.Faults()
		st := inj.Stats()
		deg := mol.Degradation()
		fmt.Printf("faults injected: %d molecule failures (%d pending), %d line corruptions, %d delayed lookups, %d out-of-range dropped\n",
			st.MoleculeFailures, inj.PendingFailures(), st.LineCorruptions,
			st.NoCDelayedLookups, st.SkippedOutOfRange)
		fmt.Printf("degradation: %d molecules retired (%d writebacks, %d lines lost), %d corruptions (%d dirty), %d NoC retries (%d abandoned), %d uncached bypasses\n",
			deg.RetiredMolecules, deg.RetirementWritebacks, deg.RetirementLinesLost,
			deg.LineCorruptions, deg.DirtyCorruptions,
			deg.NoCRetries, deg.NoCAbandonedLookups, deg.UncachedBypasses)
		if pending := inj.PendingFailures(); pending > 0 {
			log.Printf("%d scheduled molecule failures never delivered (run longer?)", pending)
		}
		if deg.RetiredMolecules != st.MoleculeFailures {
			log.Printf("delivered %d molecule failures but retired %d molecules",
				st.MoleculeFailures, deg.RetiredMolecules)
			ok = false
		}
	}
	if chk != nil {
		vs := chk.violations
		fmt.Printf("invariant audits: %d runs, %d violations\n", chk.runs, len(vs))
		if len(vs) > 0 {
			fmt.Println(chk.summary())
			for i, v := range vs {
				if i == 20 {
					fmt.Printf("  ... %d more\n", len(vs)-20)
					break
				}
				fmt.Printf("  [%s] %s\n", v.Rule, v.Detail)
			}
			ok = false
		}
	}
	return ok
}
