package cmp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"molcache/internal/addr"
	"molcache/internal/cache"
	"molcache/internal/engine"
	"molcache/internal/rng"
	"molcache/internal/stats"
	"molcache/internal/trace"
	"molcache/internal/workload"
)

// sharedL2 returns a 1MB 4-way L2 like the paper's Table 1 setup.
func sharedL2() *cache.Cache {
	return cache.MustNew(cache.Config{Size: 1 * addr.MB, Ways: 4, LineSize: 64})
}

// fixedGen replays a fixed list of accesses, then loops.
type fixedGen struct {
	name string
	seq  []workload.Access
	pos  int
}

func (f *fixedGen) Name() string { return f.name }
func (f *fixedGen) Next() workload.Access {
	a := f.seq[f.pos%len(f.seq)]
	f.pos++
	return a
}

func TestL1FiltersHotLoop(t *testing.T) {
	l2 := sharedL2()
	s := New(l2, Config{})
	// 8KB loop fits the 16KB L1 entirely.
	if err := s.AddCore(1, workload.NewLoop("hot", 0, 8*addr.KB, 0, rng.New(1))); err != nil {
		t.Fatal(err)
	}
	s.Run(50000)
	l1 := s.L1Ledger().App(1)
	if l1.MissRate() > 0.01 {
		t.Errorf("L1 miss rate = %v for a fitting loop, want ~0", l1.MissRate())
	}
	// L2 must only have seen the cold misses (8KB/64 = 128 lines).
	l2acc := l2.Ledger().App(1).Accesses()
	if l2acc == 0 || l2acc > 200 {
		t.Errorf("L2 saw %d accesses, want ~128 cold fills", l2acc)
	}
}

func TestStreamingPassesThrough(t *testing.T) {
	l2 := sharedL2()
	s := New(l2, Config{})
	if err := s.AddCore(1, workload.NewStream("crc", 0, 64*addr.MB, 0, rng.New(2))); err != nil {
		t.Fatal(err)
	}
	s.Run(100000)
	// Sequential 4B accesses: 1 L1 miss per 16 words.
	l1 := s.L1Ledger().App(1)
	if l1.MissRate() < 0.05 || l1.MissRate() > 0.08 {
		t.Errorf("streaming L1 miss rate = %v, want ~1/16", l1.MissRate())
	}
	// Every L2 access is a distinct line: miss rate ~1.
	if mr := l2.Ledger().App(1).MissRate(); mr < 0.99 {
		t.Errorf("streaming L2 miss rate = %v, want ~1", mr)
	}
}

func TestRoundRobinFairness(t *testing.T) {
	s := New(sharedL2(), Config{})
	for i := uint16(1); i <= 4; i++ {
		if err := s.AddCore(i, workload.NewLoop("l", uint64(i)<<36, 64*addr.KB, 0, rng.New(uint64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	s.Run(40001)
	if s.Issued() != 40001 {
		t.Errorf("issued = %d", s.Issued())
	}
	// Each core issues within one reference of total/4.
	for i := uint16(1); i <= 4; i++ {
		n := s.L1Ledger().App(i).Accesses()
		if n < 10000 || n > 10001 {
			t.Errorf("core %d issued %d refs, want ~10000", i, n)
		}
	}
}

func TestWriteInvalidatesPeerCopies(t *testing.T) {
	s := New(sharedL2(), Config{})
	// Two cores in the SAME address space (same ASID), touching the
	// same line alternately: reader first, then writer.
	readSeq := []workload.Access{{Addr: 0x1000}}
	writeSeq := []workload.Access{{Addr: 0x1000, Write: true}}
	if err := s.AddCore(1, &fixedGen{name: "reader", seq: readSeq}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddCore(1, &fixedGen{name: "writer", seq: writeSeq}); err != nil {
		t.Fatal(err)
	}
	s.Step() // reader fills
	s.Step() // writer writes -> invalidation
	if inv := s.Coherence().Invalidations; inv != 1 {
		t.Fatalf("invalidations = %d, want 1", inv)
	}
	// Reader's next access must be an L1 miss (its copy was killed),
	// and the dirty peer copy forces an intervention writeback.
	before := s.L1Ledger().App(1).Misses
	for s.Step() != 0 { // advance until the reader core issues again
	}
	if s.L1Ledger().App(1).Misses <= before {
		t.Error("reader hit after its copy was invalidated")
	}
	if s.Coherence().Interventions == 0 {
		t.Error("no intervention recorded for dirty peer supply")
	}
}

func TestCaptureL1MissTrace(t *testing.T) {
	s := New(sharedL2(), Config{CaptureL1Misses: true})
	if err := s.AddCore(3, workload.NewStream("s", 1<<36, 1*addr.MB, 0, rng.New(3))); err != nil {
		t.Fatal(err)
	}
	s.Run(3200) // 3200 word refs = 200 lines
	cap := s.Captured()
	if len(cap) != 200 {
		t.Fatalf("captured %d refs, want 200 line fills", len(cap))
	}
	for _, r := range cap {
		if r.ASID != 3 || r.CPU != 0 {
			t.Fatalf("bad captured ref %+v", r)
		}
	}
	// The captured stream replayed into an identical fresh L2 must
	// reproduce the same L2 hit/miss counts (the paper's Dinero replay
	// methodology).
	l2b := sharedL2()
	for _, r := range cap {
		l2b.Access(r)
	}
	a := s.L2().(*cache.Cache).Ledger().App(3)
	b := l2b.Ledger().App(3)
	if a != b {
		t.Errorf("replayed L2 stats %+v != live %+v", b, a)
	}
}

func TestOnL2AccessHook(t *testing.T) {
	l2 := sharedL2()
	s := New(l2, Config{})
	if err := s.AddCore(1, workload.NewStream("s", 0, 1*addr.MB, 0, rng.New(4))); err != nil {
		t.Fatal(err)
	}
	calls := uint64(0)
	s.OnL2Access = func(r trace.Ref, res engine.Result) {
		if r.ASID != 1 {
			t.Errorf("hook saw ASID %d", r.ASID)
		}
		calls++
	}
	s.Run(3200)
	want := l2.Ledger().App(1).Accesses()
	if calls != want {
		t.Errorf("hook fired %d times, L2 saw %d accesses", calls, want)
	}
	if calls == 0 {
		t.Error("hook never fired")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, uint64) {
		l2 := sharedL2()
		s := New(l2, Config{})
		for i := uint16(1); i <= 2; i++ {
			g := workload.MustNew("parser", uint64(i)<<36, 42)
			if err := s.AddCore(i, g); err != nil {
				t.Fatal(err)
			}
		}
		s.Run(60000)
		led := l2.Ledger()
		return led.Total.Hits, led.Total.Misses
	}
	h1, m1 := run()
	h2, m2 := run()
	if h1 != h2 || m1 != m2 {
		t.Errorf("runs differ: (%d,%d) vs (%d,%d)", h1, m1, h2, m2)
	}
}

func TestAddMixRejectsUnknownWorkload(t *testing.T) {
	s := New(sharedL2(), Config{})
	if err := s.AddMix([]string{"art", "nosuchapp"}, 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestCoreLimit(t *testing.T) {
	s := New(sharedL2(), Config{})
	for i := 0; i < 16; i++ {
		if err := s.AddCore(uint16(i), workload.NewLoop("l", uint64(i)<<30, 4096, 0, rng.New(1))); err != nil {
			t.Fatalf("core %d rejected: %v", i, err)
		}
	}
	if err := s.AddCore(99, workload.NewLoop("l", 0, 4096, 0, rng.New(1))); err == nil {
		t.Error("17th core accepted")
	}
}

func TestTimingThrottlesMissBoundCore(t *testing.T) {
	s := New(sharedL2(), Config{})
	// Core 0: tiny loop (all L1 hits after warmup). Core 1: huge
	// pointer chase (every reference misses to memory).
	if err := s.AddCore(1, workload.NewLoop("hot", 0, 4*addr.KB, 0, rng.New(1))); err != nil {
		t.Fatal(err)
	}
	if err := s.AddCore(2, workload.NewPointerChase("chase", 1<<36, 32*addr.MB, 64, 0, rng.New(2))); err != nil {
		t.Fatal(err)
	}
	s.Run(200000)
	fast := s.L1Ledger().App(1).Accesses()
	slow := s.L1Ledger().App(2).Accesses()
	// The stalled core must issue far fewer references (roughly the
	// latency ratio, ~200x; demand at least 20x).
	if fast < 20*slow {
		t.Errorf("issue counts: hot=%d chase=%d; timing model not throttling", fast, slow)
	}
	if cpi := s.CoreCPI(2); cpi < 50 {
		t.Errorf("chase CPI = %.1f, want memory-bound (>= 50)", cpi)
	}
	if cpi := s.CoreCPI(1); cpi > 5 {
		t.Errorf("hot-loop CPI = %.1f, want ~1", cpi)
	}
	if s.Cycle() == 0 {
		t.Error("no cycles elapsed")
	}
	if s.CoreCPI(99) != 0 {
		t.Error("CPI for unknown ASID should be 0")
	}
}

func TestMESIDowngradeKeepsPeerCopy(t *testing.T) {
	s := New(sharedL2(), Config{})
	// Writer dirties a line; a second core reads it: under MESI the
	// writer keeps a Shared copy (downgrade), it is not invalidated.
	writeSeq := []workload.Access{{Addr: 0x2000, Write: true}, {Addr: 0x2000}}
	readSeq := []workload.Access{{Addr: 0x2000}}
	if err := s.AddCore(1, &fixedGen{name: "writer", seq: writeSeq}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddCore(1, &fixedGen{name: "reader", seq: readSeq}); err != nil {
		t.Fatal(err)
	}
	s.Step() // writer: write miss -> M
	s.Step() // reader: read miss -> writer downgraded, writeback
	co := s.Coherence()
	if co.Downgrades != 1 || co.Interventions != 1 {
		t.Fatalf("coherence = %+v, want one downgrade with writeback", co)
	}
	// Advance until the writer issues again: its (downgraded, not
	// invalidated) copy must still hit in L1.
	before := s.L1Ledger().App(1).Hits
	for s.Step() != 0 {
	}
	if s.L1Ledger().App(1).Hits <= before {
		t.Error("writer's downgraded copy was lost (MESI keeps it Shared)")
	}
	if co.Invalidations != 0 {
		t.Errorf("read triggered invalidations: %+v", co)
	}
}

// captureDigestWant is the sha256 of the mix12 capture below: the
// captured L1-miss stream, the L2 ledger and the coherence counters.
// It pins the substrate's simulated behaviour, so a change to the
// ledger, directory or issue path that alters any simulated number
// fails here.
const captureDigestWant = "ab5a048b8d6164bfb0204142c2e8453e092e9de92c116336e9d3d1cc6e0b1a32"

// TestCaptureDigest captures the twelve-app MixedNames mix over the
// 1 MB 4-way reference L2 (the set-up of the replay benchmark, shortened
// to 200K processor references) and checks its digest.
func TestCaptureDigest(t *testing.T) {
	const seed = 2006
	l2 := sharedL2()
	s := New(l2, Config{CaptureL1Misses: true})
	if err := s.AddMix(workload.MixedNames, seed); err != nil {
		t.Fatal(err)
	}
	s.Run(200_000)
	// The L1 ledger, summed over the cores, counts every issued
	// reference and every captured miss.
	if l1 := s.L1Ledger().Total; l1.Accesses() != s.Issued() || l1.Misses != uint64(len(s.Captured())) {
		t.Errorf("L1 ledger %+v, want %d accesses and %d misses", l1, s.Issued(), len(s.Captured()))
	}

	h := sha256.New()
	hashCapture(h, s, l2)
	if got := hex.EncodeToString(h.Sum(nil)); got != captureDigestWant {
		t.Errorf("capture digest = %s, want %s (%d refs captured)", got, captureDigestWant, len(s.Captured()))
	}
}

// hashCapture writes the captured L1-miss stream, the L2 ledger and the
// coherence counters of s to h.
func hashCapture(h io.Writer, s *System, l2 *cache.Cache) {
	var buf [12]byte
	for _, r := range s.Captured() {
		binary.LittleEndian.PutUint64(buf[0:8], r.Addr)
		binary.LittleEndian.PutUint16(buf[8:10], r.ASID)
		buf[10], buf[11] = r.CPU, byte(r.Kind)
		h.Write(buf[:])
	}
	hashLedger(h, l2.Ledger())
	fmt.Fprintf(h, "coherence %+v\n", s.Coherence())
}

// hashLedger writes led's total and per-ASID counts to h.
func hashLedger(h io.Writer, led *stats.Ledger) {
	fmt.Fprintf(h, "total %d %d\n", led.Total.Hits, led.Total.Misses)
	for _, asid := range led.ASIDs() {
		hm := led.App(asid)
		fmt.Fprintf(h, "asid %d %d %d\n", asid, hm.Hits, hm.Misses)
	}
}

// sharedMix is six applications run at one address base, so their
// cores touch the same lines and every MESI transition occurs.
var sharedMix = []string{"crafty", "gap", "twolf", "parser", "gcc", "NAT"}

// addSharedMix attaches sharedMix to s: core i runs as ASID i+1 at the
// common base 1<<36 with seed 7+i.
func addSharedMix(t testing.TB, s *System) {
	t.Helper()
	for i, name := range sharedMix {
		gen, err := workload.New(name, 1<<36, uint64(7+i))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AddCore(uint16(i+1), gen); err != nil {
			t.Fatal(err)
		}
	}
}

// captureDigestSharedWant is the sha256 of the shared-address capture
// below: TestCaptureDigest's fields plus the L1 ledger, the cycle count
// and every core's CPI.
const captureDigestSharedWant = "2884bc9295ce82d3a0215649d9284f93c6563e75ff5fc8b5e9c007b5d3a6c6b0"

// TestCaptureDigestShared pins the capture of a mix whose cores share
// lines. TestCaptureDigest's applications live in disjoint address
// spaces, so its coherence counters are all zero; here invalidations,
// interventions, downgrades and silent upgrades all occur, so a change
// that skips or reorders directory work alters the digest.
func TestCaptureDigestShared(t *testing.T) {
	l2 := sharedL2()
	s := New(l2, Config{CaptureL1Misses: true})
	addSharedMix(t, s)
	s.Run(200_000)

	co := s.Coherence()
	if co.Invalidations == 0 || co.Interventions == 0 || co.WritebacksForced == 0 ||
		co.Downgrades == 0 || co.SilentUpgrades == 0 {
		t.Errorf("coherence = %+v, want every counter nonzero", co)
	}
	h := sha256.New()
	hashCapture(h, s, l2)
	hashLedger(h, s.L1Ledger())
	fmt.Fprintf(h, "cycle %d\n", s.Cycle())
	for i := range sharedMix {
		fmt.Fprintf(h, "cpi %d %v\n", i+1, s.CoreCPI(uint16(i+1)))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != captureDigestSharedWant {
		t.Errorf("shared capture digest = %s, want %s (%d refs captured, coherence %+v)",
			got, captureDigestSharedWant, len(s.Captured()), co)
	}
}

// TestStepMatchesReadyScan checks Step's constant-time pick against the
// rule it replaces: before every Step, scan the cores for the smallest
// readyAt (lowest ID on ties) and require Step to issue from that core.
// The mixes cover a lone memory-bound core (mcf), Table 1's four SPEC
// cores, the twelve mixed applications, the shared-address mix and
// sixteen cores, the most a wheel slot's mask holds.
func TestStepMatchesReadyScan(t *testing.T) {
	const steps = 200_000
	sixteen := append(append([]string{}, workload.MixedNames...), workload.SPECNames...)
	for _, tc := range []struct {
		name string
		add  func(*System) error
	}{
		{"mcf-alone", func(s *System) error { return s.AddMix([]string{"mcf"}, 2006) }},
		{"spec4", func(s *System) error { return s.AddMix(workload.SPECNames, 2006) }},
		{"mix12", func(s *System) error { return s.AddMix(workload.MixedNames, 2006) }},
		{"shared", func(s *System) error { addSharedMix(t, s); return nil }},
		{"sixteen", func(s *System) error { return s.AddMix(sixteen, 2006) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(sharedL2(), Config{})
			if err := tc.add(s); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < steps; i++ {
				want := s.cores[0]
				for _, c := range s.cores[1:] {
					if c.readyAt < want.readyAt {
						want = c
					}
				}
				if got := s.Step(); got != want.id {
					t.Fatalf("step %d: Step issued core %d, the ready scan picks core %d (readyAt %d)",
						i, got, want.id, want.readyAt)
				}
			}
			if err := s.AddCore(99, workload.MustNew("art", 0, 1)); err == nil {
				t.Error("AddCore after Step accepted")
			}
		})
	}
}

// TestStepPanicsWithoutCores pins Step's documented contract on an
// empty system, and that Run issues nothing there.
func TestStepPanicsWithoutCores(t *testing.T) {
	s := New(sharedL2(), Config{})
	s.Run(10)
	if s.Issued() != 0 {
		t.Fatalf("Run on an empty system issued %d references", s.Issued())
	}
	defer func() {
		if recover() == nil {
			t.Error("Step on an empty system did not panic")
		}
	}()
	s.Step()
}

// TestCMPStepZeroAllocs guards the CMP step against heap allocation:
// four warmed cores on L1-resident loops, capture off.
func TestCMPStepZeroAllocs(t *testing.T) {
	s := New(sharedL2(), Config{})
	for i := uint16(1); i <= 4; i++ {
		if err := s.AddCore(i, workload.NewLoop("l", uint64(i)<<36, 8*addr.KB, 0.3, rng.New(uint64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	s.Run(100_000)
	if n := testing.AllocsPerRun(10_000, func() { s.Step() }); n != 0 {
		t.Errorf("Step allocates %v times per call, want 0", n)
	}
}
