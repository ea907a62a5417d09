package cmp

import (
	"errors"
	"fmt"
	"testing"

	"molcache/internal/engine"
	"molcache/internal/molecular"
	"molcache/internal/stats"
	"molcache/internal/trace"
	"molcache/internal/workload"
)

// TestMixAppsStayInWindow pins RunMix's exactness precondition: every
// registered workload model, built by MixApp as ASIDs 1-16, keeps its
// references inside [ASID<<36, (ASID+1)<<36), so no two cores of a mix
// ever touch one line.
func TestMixAppsStayInWindow(t *testing.T) {
	const refs = 1_000_000
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for i := 0; i < 16; i++ {
				asid, gen, err := MixApp(i, name, 2006)
				if err != nil {
					t.Fatal(err)
				}
				for n := 0; n < refs; n++ {
					if a := gen.Next().Addr; a>>asidShift != uint64(asid) {
						t.Fatalf("ASID %d: reference %d at %#x is outside [%#x, %#x)",
							asid, n, a, uint64(asid)<<asidShift, uint64(asid+1)<<asidShift)
					}
				}
			}
		})
	}
}

// table1Mixes are Table 1's eleven combinations (experiments.Table1Combos).
var table1Mixes = [][]string{
	{"art"}, {"mcf"}, {"ammp"}, {"parser"},
	{"art", "mcf"}, {"art", "ammp"}, {"art", "parser"},
	{"mcf", "ammp"}, {"mcf", "parser"}, {"ammp", "parser"},
	{"art", "mcf", "ammp", "parser"},
}

// systemRun is what the differential oracle compares: the captured
// L1-miss stream and the L2 ledger.
type systemRun struct {
	captured []trace.Ref
	ledger   *stats.Ledger
}

// l2Maker builds a fresh shared L2 and returns its ledger.
type l2Maker struct {
	name string
	make func(t testing.TB) (engine.Cache, *stats.Ledger)
}

var oracleL2s = []l2Maker{
	{"1MB-4way", func(t testing.TB) (engine.Cache, *stats.Ledger) {
		l2 := sharedL2()
		return l2, l2.Ledger()
	}},
	{"molecular-2MB-Randy", func(t testing.TB) (engine.Cache, *stats.Ledger) {
		cfg, err := molecular.ParseSpec("molecular:2MB:1x4:Randy", 7)
		if err != nil {
			t.Fatal(err)
		}
		mc, err := molecular.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return mc, mc.Ledger()
	}},
}

// runSystem runs the mix on System, the reference model.
func runSystem(t testing.TB, l2 engine.Cache, led *stats.Ledger, names []string, refs int, seed uint64) systemRun {
	t.Helper()
	s := New(l2, Config{CaptureL1Misses: true})
	if err := s.AddMix(names, seed); err != nil {
		t.Fatal(err)
	}
	s.Run(refs)
	return systemRun{captured: s.Captured(), ledger: led}
}

// diffRuns reports the first difference between a RunMix result and
// System's.
func diffRuns(want, got systemRun) error {
	if len(got.captured) != len(want.captured) {
		return fmt.Errorf("captured %d refs, System captured %d", len(got.captured), len(want.captured))
	}
	for i := range want.captured {
		if got.captured[i] != want.captured[i] {
			return fmt.Errorf("captured ref %d = %v, System's is %v", i, got.captured[i], want.captured[i])
		}
	}
	if got.ledger.Total != want.ledger.Total {
		return fmt.Errorf("L2 ledger total %+v, System's %+v", got.ledger.Total, want.ledger.Total)
	}
	wa, ga := want.ledger.ASIDs(), got.ledger.ASIDs()
	if len(wa) != len(ga) {
		return fmt.Errorf("L2 ledger ASIDs %v, System's %v", ga, wa)
	}
	for i, asid := range wa {
		if ga[i] != asid || got.ledger.App(asid) != want.ledger.App(asid) {
			return fmt.Errorf("L2 ledger ASID %d: %+v, System's %+v", asid, got.ledger.App(ga[i]), want.ledger.App(asid))
		}
	}
	return nil
}

// TestRunMixMatchesSystem is the differential oracle: for every mix,
// length and seed, RunMix must capture the same stream as System and
// leave the L2 with the same ledger, in total and per ASID. The mixes are Table 1's eleven combinations, the twelve
// mixed applications and all fifteen models together; the lengths run
// from nothing to a million processor references; the L2 is the
// traditional reference cache and, on a subset, a molecular one.
func TestRunMixMatchesSystem(t *testing.T) {
	mixes := append(append([][]string{}, table1Mixes...), workload.MixedNames, workload.Names())
	lengths := []int{0, 1, 2, 17, 4097, 123_457}
	seeds := []uint64{1, 2006, 99}
	type tc struct {
		mix  []string
		refs int
		seed uint64
		l2   l2Maker
	}
	var cases []tc
	for _, mix := range mixes {
		for _, refs := range lengths {
			for _, seed := range seeds {
				cases = append(cases, tc{mix, refs, seed, oracleL2s[0]})
			}
		}
		cases = append(cases, tc{mix, 123_457, 2006, oracleL2s[1]})
	}
	// A million references: the suite's length, on the mixes the
	// experiments capture (Figure 5's four SPEC applications, Table 2's
	// twelve) and the longest mix. -short leaves them out.
	if !testing.Short() {
		for _, mix := range [][]string{workload.SPECNames, workload.MixedNames, workload.Names()} {
			for _, seed := range seeds {
				cases = append(cases, tc{mix, 1_000_000, seed, oracleL2s[0]})
			}
		}
		cases = append(cases, tc{workload.MixedNames, 1_000_000, 2006, oracleL2s[1]})
	}

	for _, c := range cases {
		name := fmt.Sprintf("%s/%dapps/refs=%d/seed=%d", c.l2.name, len(c.mix), c.refs, c.seed)
		if len(c.mix) <= 2 {
			name = fmt.Sprintf("%s/%v/refs=%d/seed=%d", c.l2.name, c.mix, c.refs, c.seed)
		}
		t.Run(name, func(t *testing.T) {
			l2, led := c.l2.make(t)
			want := runSystem(t, l2, led, c.mix, c.refs, c.seed)
			l2, led = c.l2.make(t)
			captured, err := RunMix(l2, c.mix, c.refs, c.seed, true)
			if err != nil {
				t.Fatal(err)
			}
			if err := diffRuns(want, systemRun{captured, led}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRunMixWithoutCapture: a run that does not capture returns no
// stream and leaves the L2 as a capturing run does.
func TestRunMixWithoutCapture(t *testing.T) {
	l2, bare := sharedL2(), sharedL2()
	captured, err := RunMix(l2, workload.MixedNames, 200_000, 2006, true)
	if err != nil || len(captured) == 0 {
		t.Fatalf("capturing run returned %d refs, %v", len(captured), err)
	}
	if out, err := RunMix(bare, workload.MixedNames, 200_000, 2006, false); err != nil || out != nil {
		t.Fatalf("run without capture returned %d refs, %v", len(out), err)
	}
	if err := diffRuns(systemRun{nil, l2.Ledger()}, systemRun{nil, bare.Ledger()}); err != nil {
		t.Errorf("without capture: %v", err)
	}
}

// windowGen loops over 4 KB at base for good references, then issues
// one at addr.
type windowGen struct {
	base, addr uint64
	good, n    int
}

func (w *windowGen) Name() string { return "window" }
func (w *windowGen) Next() workload.Access {
	if w.n++; w.n > w.good {
		return workload.Access{Addr: w.addr}
	}
	return workload.Access{Addr: w.base + uint64(w.n%64)*64}
}

// mixOf builds cores for gens as ASIDs 1, 2, ...
func mixOf(gens ...workload.Generator) []mixCore {
	cores := make([]mixCore, len(gens))
	for i, g := range gens {
		cores[i] = newMixCore(uint16(i+1), g)
	}
	return cores
}

// TestRunMixWindowError: a reference outside its core's window fails the
// run with a *WindowError naming the core, the ASID and the address —
// but only once it would issue: a run that ends before it succeeds.
func TestRunMixWindowError(t *testing.T) {
	cores := func() []mixCore {
		art, err := workload.New("art", 1<<asidShift, 1)
		if err != nil {
			t.Fatal(err)
		}
		return mixOf(art, &windowGen{base: 2 << asidShift, good: 10_000, addr: 5 << asidShift})
	}
	_, err := runMix(sharedL2(), cores(), 100_000, true)
	var we *WindowError
	if !errors.As(err, &we) {
		t.Fatalf("err = %v, want a *WindowError", err)
	}
	if we.Core != 1 || we.ASID != 2 || we.Addr != 5<<asidShift {
		t.Errorf("%+v, want core 1, ASID 2, address %#x", we, uint64(5<<asidShift))
	}
	if _, err := runMix(sharedL2(), cores(), 5_000, true); err != nil {
		t.Errorf("a run ending before the bad reference failed: %v", err)
	}
}

// TestRunMixEdges: an empty mix or budget returns an empty capture; a
// 17th application fails as AddMix does; an unknown name fails with
// MixApp's error.
func TestRunMixEdges(t *testing.T) {
	if out, err := RunMix(sharedL2(), nil, 1000, 1, true); err != nil || len(out) != 0 {
		t.Errorf("empty mix returned %d refs, %v", len(out), err)
	}
	if out, err := RunMix(sharedL2(), []string{"art"}, 0, 1, true); err != nil || len(out) != 0 {
		t.Errorf("zero references returned %d refs, %v", len(out), err)
	}

	seventeen := append(append([]string{}, workload.Names()...), "art", "mcf")
	_, err := RunMix(sharedL2(), seventeen, 1000, 1, true)
	sysErr := New(sharedL2(), Config{}).AddMix(seventeen, 1)
	if !errors.Is(err, errTooManyCores) || sysErr == nil || err.Error() != sysErr.Error() {
		t.Errorf("17 apps: RunMix error %v, AddMix error %v, want both %v", err, sysErr, errTooManyCores)
	}

	names := []string{"art", "nosuchapp"}
	_, err = RunMix(sharedL2(), names, 1000, 1, true)
	_, _, appErr := MixApp(1, "nosuchapp", 1)
	if err == nil || appErr == nil || err.Error() != appErr.Error() {
		t.Errorf("unknown name: RunMix error %v, want MixApp's %v", err, appErr)
	}
}
