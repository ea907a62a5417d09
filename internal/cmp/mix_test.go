package cmp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"molcache/internal/addr"
	"molcache/internal/cache"
	"molcache/internal/engine"
	"molcache/internal/molecular"
	"molcache/internal/resize"
	"molcache/internal/rng"
	"molcache/internal/stats"
	"molcache/internal/trace"
	"molcache/internal/workload"
)

// TestMixAppsStayInWindow pins the window contract for every mix:
// every registered workload model, built by MixApp as ASIDs 1-16, keeps
// its references inside [ASID<<36, (ASID+1)<<36), so no two cores of a
// mix ever touch one line and Run never fails with a *WindowError.
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

// refCore is one core of the reference model.
type refCore struct {
	asid  uint16
	gen   workload.Generator
	l1    *cache.Cache
	ready uint64
}

// reference is the per-reference model Run must match. Before every
// reference it picks the core with the smallest (ready cycle, core ID)
// by linear scan and probes that core's L1; a miss is captured and goes
// to the L2 (then to hook, when set); the core advances by 1, 12 or 200
// cycles.
func reference(l2 engine.Cache, cores []refCore, refs int, hook func(trace.Ref, engine.Result)) []trace.Ref {
	var out []trace.Ref
	for n := 0; n < refs && len(cores) > 0; n++ {
		i := 0
		for j := range cores {
			if cores[j].ready < cores[i].ready {
				i = j
			}
		}
		c := &cores[i]
		ref := refOf(c.gen.Next(), c.asid)
		ref.CPU = uint8(i)
		lat := uint64(l1HitCycles)
		if !c.l1.Access(ref).Hit {
			out = append(out, ref)
			res := l2.Access(ref)
			if hook != nil {
				hook(ref, res)
			}
			lat = engine.MemoryCycles
			if res.Hit {
				lat = engine.L2HitCycles
			}
		}
		c.ready += lat
	}
	return out
}

// refCores builds the reference model's cores for gens as ASIDs 1, 2, ...
func refCores(gens ...workload.Generator) []refCore {
	cores := make([]refCore, len(gens))
	for i, g := range gens {
		cores[i] = refCore{asid: uint16(i + 1), gen: g, l1: cache.MustNew(cache.Config{Size: l1Size, Ways: l1Ways, LineSize: lineSize})}
	}
	return cores
}

// mixGens builds the generators of names as MixApp does.
func mixGens(t testing.TB, names []string, seed uint64) []workload.Generator {
	t.Helper()
	gens := make([]workload.Generator, len(names))
	for i, name := range names {
		_, gen, err := MixApp(i, name, seed)
		if err != nil {
			t.Fatal(err)
		}
		gens[i] = gen
	}
	return gens
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
		mc := newMolecularL2(t)
		return mc, mc.Ledger()
	}},
}

// newMolecularL2 builds the oracle's molecular L2.
func newMolecularL2(t testing.TB) *molecular.Cache {
	cfg, err := molecular.ParseSpec("molecular:2MB:1x4:Randy", 7)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := molecular.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return mc
}

// diffRuns reports the first difference between a System.Run result
// and the reference model's.
func diffRuns(want, got systemRun) error {
	if len(got.captured) != len(want.captured) {
		return fmt.Errorf("captured %d refs, the reference model %d", len(got.captured), len(want.captured))
	}
	for i := range want.captured {
		if got.captured[i] != want.captured[i] {
			return fmt.Errorf("captured ref %d = %v, the reference model's is %v", i, got.captured[i], want.captured[i])
		}
	}
	if got.ledger.Total != want.ledger.Total {
		return fmt.Errorf("L2 ledger total %+v, the reference model's %+v", got.ledger.Total, want.ledger.Total)
	}
	wa, ga := want.ledger.ASIDs(), got.ledger.ASIDs()
	if len(wa) != len(ga) {
		return fmt.Errorf("L2 ledger ASIDs %v, the reference model's %v", ga, wa)
	}
	for i, asid := range wa {
		if ga[i] != asid || got.ledger.App(asid) != want.ledger.App(asid) {
			return fmt.Errorf("L2 ledger ASID %d: %+v, the reference model's %+v", asid, got.ledger.App(ga[i]), want.ledger.App(asid))
		}
	}
	return nil
}

// runSystem runs gens as cores of a capturing System over l2, in Runs
// of the given lengths.
func runSystem(t testing.TB, l2 engine.Cache, gens []workload.Generator, runs ...int) []trace.Ref {
	t.Helper()
	s := New(l2, Config{CaptureL1Misses: true})
	for i, g := range gens {
		if err := s.AddCore(uint16(i+1), g); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range runs {
		run(t, s, n)
	}
	return s.Captured()
}

// TestRunMixMatchesSystem is the differential oracle: for every mix,
// length and seed, System.Run must capture the same stream as the
// per-reference model and leave the L2 with the same ledger, in total
// and per ASID. The mixes are Table 1's eleven combinations, the twelve
// mixed applications and all fifteen models together; the lengths run
// from nothing to a million processor references; the L2 is the
// traditional reference cache and, on a subset, a molecular one. Three
// more cases cover four identical cores (which interleave round-robin),
// a run issued in several Runs, and molsim -mix's set-up, a resize
// controller ticked from OnL2Access on a molecular L2.
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
			want := systemRun{reference(l2, refCores(mixGens(t, c.mix, c.seed)...), c.refs, nil), led}
			l2, led = c.l2.make(t)
			got := systemRun{runSystem(t, l2, mixGens(t, c.mix, c.seed), c.refs), led}
			if err := diffRuns(want, got); err != nil {
				t.Fatal(err)
			}
		})
	}

	t.Run("round-robin", func(t *testing.T) {
		loops := func() []workload.Generator {
			var gens []workload.Generator
			for i := uint64(1); i <= 4; i++ {
				gens = append(gens, workload.NewLoop("l", i<<asidShift, 64*addr.KB, 0, rng.New(i)))
			}
			return gens
		}
		l2 := sharedL2()
		want := systemRun{reference(l2, refCores(loops()...), 40_001, nil), l2.Ledger()}
		l2 = sharedL2()
		if err := diffRuns(want, systemRun{runSystem(t, l2, loops(), 40_001), l2.Ledger()}); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("in-pieces", func(t *testing.T) {
		const seed = 2006
		l2 := sharedL2()
		want := systemRun{reference(l2, refCores(mixGens(t, workload.MixedNames, seed)...), 127_457, nil), l2.Ledger()}
		l2 = sharedL2()
		got := runSystem(t, l2, mixGens(t, workload.MixedNames, seed), 0, 1, 17, 4097, 123_342)
		if err := diffRuns(want, systemRun{got, l2.Ledger()}); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("molecular-2MB-Randy/resize/12apps/refs=1000000/seed=2006", func(t *testing.T) {
		const refs, seed = 1_000_000, 2006
		// resized runs the mix under a resize controller ticked after
		// every L2 access and returns the capture, the ledger and the
		// controller's decision count.
		resized := func(runMix func(l2 engine.Cache, hook func(trace.Ref, engine.Result)) []trace.Ref) (systemRun, uint64) {
			mc := newMolecularL2(t)
			ctrl, err := resize.New(mc, resize.Config{DefaultGoal: 0.10})
			if err != nil {
				t.Fatal(err)
			}
			captured := runMix(mc, func(trace.Ref, engine.Result) { ctrl.Tick() })
			return systemRun{captured, mc.Ledger()}, ctrl.DecisionCount()
		}
		want, wantDecisions := resized(func(l2 engine.Cache, hook func(trace.Ref, engine.Result)) []trace.Ref {
			return reference(l2, refCores(mixGens(t, workload.MixedNames, seed)...), refs, hook)
		})
		got, gotDecisions := resized(func(l2 engine.Cache, hook func(trace.Ref, engine.Result)) []trace.Ref {
			s := New(l2, Config{CaptureL1Misses: true})
			s.OnL2Access = hook
			if err := s.AddMix(workload.MixedNames, seed); err != nil {
				t.Fatal(err)
			}
			run(t, s, refs)
			return s.Captured()
		})
		if err := diffRuns(want, got); err != nil {
			t.Fatal(err)
		}
		if gotDecisions != wantDecisions || gotDecisions == 0 {
			t.Errorf("%d resize decisions, the reference model's %d", gotDecisions, wantDecisions)
		}
	})
}

// TestRunMixWithoutCapture: a run that does not capture returns no
// stream and leaves the L2 as a capturing run does.
func TestRunMixWithoutCapture(t *testing.T) {
	l2, bare := sharedL2(), sharedL2()
	if captured := runSystem(t, l2, mixGens(t, workload.MixedNames, 2006), 200_000); len(captured) == 0 {
		t.Fatal("capturing run captured nothing")
	}
	s := New(bare, Config{})
	if err := s.AddMix(workload.MixedNames, 2006); err != nil {
		t.Fatal(err)
	}
	run(t, s, 200_000)
	if out := s.Captured(); out != nil {
		t.Fatalf("run without capture returned %d refs", len(out))
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

// TestRunMixWindowError: a reference outside its core's window fails
// Run with a *WindowError naming the core, the ASID and the address —
// but only once it would issue: a run that ends before it succeeds.
func TestRunMixWindowError(t *testing.T) {
	system := func() *System {
		art, err := workload.New("art", 1<<asidShift, 1)
		if err != nil {
			t.Fatal(err)
		}
		s := New(sharedL2(), Config{CaptureL1Misses: true})
		for i, g := range []workload.Generator{art, &windowGen{base: 2 << asidShift, good: 10_000, addr: 5 << asidShift}} {
			if err := s.AddCore(uint16(i+1), g); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	err := system().Run(100_000)
	var we *WindowError
	if !errors.As(err, &we) {
		t.Fatalf("err = %v, want a *WindowError", err)
	}
	if we.Core != 1 || we.ASID != 2 || we.Addr != 5<<asidShift {
		t.Errorf("%+v, want core 1, ASID 2, address %#x", we, uint64(5<<asidShift))
	}
	if err := system().Run(5_000); err != nil {
		t.Errorf("a run ending before the bad reference failed: %v", err)
	}
}

// TestRunMixEdges: an empty system or budget captures nothing; a 17th
// application fails AddMix; an unknown name fails with MixApp's error;
// AddCore rejects a second core under one ASID and a core after the
// first Run.
func TestRunMixEdges(t *testing.T) {
	empty := New(sharedL2(), Config{CaptureL1Misses: true})
	if err := empty.Run(1000); err != nil || len(empty.Captured()) != 0 {
		t.Errorf("empty system captured %d refs, %v", len(empty.Captured()), err)
	}
	if got := runSystem(t, sharedL2(), mixGens(t, []string{"art"}, 1), 0); len(got) != 0 {
		t.Errorf("zero references captured %d refs", len(got))
	}

	seventeen := append(append([]string{}, workload.Names()...), "art", "mcf")
	if err := New(sharedL2(), Config{}).AddMix(seventeen, 1); !errors.Is(err, errTooManyCores) {
		t.Errorf("17 apps: AddMix error %v, want %v", err, errTooManyCores)
	}

	err := New(sharedL2(), Config{}).AddMix([]string{"art", "nosuchapp"}, 1)
	_, _, appErr := MixApp(1, "nosuchapp", 1)
	if err == nil || appErr == nil || err.Error() != appErr.Error() {
		t.Errorf("unknown name: AddMix error %v, want MixApp's %v", err, appErr)
	}

	s := New(sharedL2(), Config{})
	if err := s.AddMix([]string{"art"}, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddCore(1, workload.MustNew("mcf", 1<<asidShift, 1)); err == nil {
		t.Error("a second core under ASID 1 accepted")
	}
	run(t, s, 10)
	if err := s.AddCore(2, workload.MustNew("mcf", 2<<asidShift, 1)); err == nil {
		t.Error("AddCore after Run accepted")
	}
}

// edgeGen runs at the two ends of ASID asid's window, one line further
// in on each end every two references: the lowest word of line k from
// the bottom, then the highest word of line k from the top, reads for
// even k and writes for odd. Every reference misses the L1, and the
// deltas between captured addresses are the largest a window allows,
// both ways.
type edgeGen struct {
	asid uint16
	n    uint64
}

func (g *edgeGen) Name() string { return "edge" }
func (g *edgeGen) Next() workload.Access {
	k := g.n / 2
	a := uint64(g.asid)<<asidShift + k*lineSize
	if g.n%2 == 1 {
		a = (uint64(g.asid)+1)<<asidShift - 4 - k*lineSize
	}
	g.n++
	return workload.Access{Addr: a, Write: k%2 == 1}
}

// TestCaptureEncodingEdges holds the capture encoding to the
// per-reference model where its fields are widest: sixteen cores (core
// ID 15 fills the header's four bits), core 15 under ASID 0xFFFF at
// the top of the address space, whose first address is nearly 2^52
// from 0 and whose later deltas are ±2^36, next to fifteen cores that
// stream over a line a reference, reads and writes mixed. It runs in
// pieces, one a single reference and two long enough to fill several
// capture blocks.
func TestCaptureEncodingEdges(t *testing.T) {
	runs := []int{1, 17, 300_000, 1, 4097, 250_000}
	gens := func() []workload.Generator {
		var gens []workload.Generator
		for i := uint64(1); i < maxCores; i++ {
			gens = append(gens, workload.NewStride("s", i<<asidShift, 8*addr.MB, lineSize, 0.25, rng.New(i)))
		}
		return append(gens, &edgeGen{asid: 0xFFFF})
	}
	total := 0
	for _, n := range runs {
		total += n
	}
	l2 := sharedL2()
	cores := refCores(gens()...)
	cores[maxCores-1].asid = 0xFFFF
	want := systemRun{reference(l2, cores, total, nil), l2.Ledger()}

	l2 = sharedL2()
	s := New(l2, Config{CaptureL1Misses: true})
	for i, g := range gens() {
		asid := uint16(i + 1)
		if i == maxCores-1 {
			asid = 0xFFFF
		}
		if err := s.AddCore(asid, g); err != nil {
			t.Fatal(err)
		}
	}
	crossed := 0
	for _, n := range runs {
		before := len(s.Captured())
		run(t, s, n)
		// A record takes at least two bytes.
		if 2*(len(s.Captured())-before) > captureBlock {
			crossed++
		}
	}
	if crossed < 2 {
		t.Fatalf("%d Runs filled more than one capture block, want at least 2", crossed)
	}
	if err := diffRuns(want, systemRun{s.Captured(), l2.Ledger()}); err != nil {
		t.Fatal(err)
	}
	edge := 0
	for _, r := range want.captured {
		if r.CPU == maxCores-1 {
			edge++
		}
	}
	if edge < 1000 {
		t.Fatalf("core 15 captured %d references, want at least 1000", edge)
	}
}

// TestCaptureAnyAddress: the capture encoding is exact for any 64-bit
// address, beyond the windows Run keeps its cores to. Every core
// records, in turn, addresses whose deltas take every varint length
// from one byte to ten, both ways, up to the 2^63 that only wraps
// around, and decoding returns each address.
func TestCaptureAnyAddress(t *testing.T) {
	l2 := sharedL2()
	s := New(l2, Config{CaptureL1Misses: true})
	for i := uint64(1); i <= maxCores; i++ {
		if err := s.AddCore(uint16(i), workload.NewLoop("l", i<<asidShift, 4096, 0, rng.New(i))); err != nil {
			t.Fatal(err)
		}
	}
	addrs := []uint64{math.MaxUint64, 1 << 63}
	for b := range 64 {
		addrs = append(addrs, 1<<b, 0)
	}
	var want []trace.Ref
	for j, a := range addrs {
		for i := range maxCores {
			kind := uint8(i+j) % 2
			s.capture(i, a, kind)
			want = append(want, trace.Ref{Addr: a, ASID: uint16(i + 1), CPU: uint8(i), Kind: trace.Kind(kind)})
		}
	}
	s.flush(new([maxCores]uint64))
	if err := diffRuns(systemRun{want, l2.Ledger()}, systemRun{s.Captured(), l2.Ledger()}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeRecordMatchesVarint holds flush's one-load record decoder
// to binary.Varint at every varint length from 1 to 10 bytes, on both
// sides of each length's bound, with the bytes after the record set to
// every pattern: the decoder must stop at the varint's last byte.
func TestDecodeRecordMatchesVarint(t *testing.T) {
	deltas := []int64{0, 1, -1, math.MaxInt64, math.MinInt64}
	for k := 1; k < 64; k++ {
		deltas = append(deltas, 1<<k-1, 1<<k, -1<<k, -1<<k-1)
	}
	for _, d := range deltas {
		for _, tail := range []byte{0, 0x80, 0xff} {
			for _, h := range []byte{0, 1<<5 - 1} {
				rec := binary.AppendVarint([]byte{h}, d)
				want := len(rec)
				for len(rec) < 8+want {
					rec = append(rec, tail)
				}
				gh, gd, gw := decodeRecord(rec)
				if gh != h || gd != d || gw != want {
					t.Fatalf("delta %d, tail %#x: decoded header %#x, delta %d, length %d; want %#x, %d, %d",
						d, tail, gh, gd, gw, h, d, want)
				}
			}
		}
	}
}
