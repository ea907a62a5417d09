package cmp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
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

// run runs s for refs processor references and fails t on an error.
func run(t testing.TB, s *System, refs int) {
	t.Helper()
	if err := s.Run(refs); err != nil {
		t.Fatal(err)
	}
}

func TestL1FiltersHotLoop(t *testing.T) {
	l2 := sharedL2()
	s := New(l2, Config{CaptureL1Misses: true})
	// 8KB loop fits the 16KB L1 entirely.
	if err := s.AddCore(1, workload.NewLoop("hot", 1<<36, 8*addr.KB, 0, rng.New(1))); err != nil {
		t.Fatal(err)
	}
	run(t, s, 50000)
	if mr := float64(len(s.Captured())) / 50000; mr > 0.01 {
		t.Errorf("L1 miss rate = %v for a fitting loop, want ~0", mr)
	}
	// L2 must only have seen the cold misses (8KB/64 = 128 lines).
	l2acc := l2.Ledger().App(1).Accesses()
	if l2acc == 0 || l2acc > 200 {
		t.Errorf("L2 saw %d accesses, want ~128 cold fills", l2acc)
	}
}

func TestStreamingPassesThrough(t *testing.T) {
	l2 := sharedL2()
	s := New(l2, Config{CaptureL1Misses: true})
	if err := s.AddCore(1, workload.NewStream("crc", 1<<36, 64*addr.MB, 0, rng.New(2))); err != nil {
		t.Fatal(err)
	}
	run(t, s, 100000)
	// Sequential 4B accesses: 1 L1 miss per 16 words.
	if mr := float64(len(s.Captured())) / 100000; mr < 0.05 || mr > 0.08 {
		t.Errorf("streaming L1 miss rate = %v, want ~1/16", mr)
	}
	// Every L2 access is a distinct line: miss rate ~1.
	if mr := l2.Ledger().App(1).MissRate(); mr < 0.99 {
		t.Errorf("streaming L2 miss rate = %v, want ~1", mr)
	}
}

func TestCaptureL1MissTrace(t *testing.T) {
	l2 := sharedL2()
	s := New(l2, Config{CaptureL1Misses: true})
	if err := s.AddCore(3, workload.NewStream("s", 3<<36, 1*addr.MB, 0, rng.New(3))); err != nil {
		t.Fatal(err)
	}
	run(t, s, 3200) // 3200 word refs = 200 lines
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
	a := l2.Ledger().App(3)
	b := l2b.Ledger().App(3)
	if a != b {
		t.Errorf("replayed L2 stats %+v != live %+v", b, a)
	}
}

func TestOnL2AccessHook(t *testing.T) {
	l2 := sharedL2()
	s := New(l2, Config{})
	if err := s.AddCore(1, workload.NewStream("s", 1<<36, 1*addr.MB, 0, rng.New(4))); err != nil {
		t.Fatal(err)
	}
	calls := uint64(0)
	s.OnL2Access = func(r trace.Ref, res engine.Result) {
		if r.ASID != 1 {
			t.Errorf("hook saw ASID %d", r.ASID)
		}
		calls++
	}
	run(t, s, 3200)
	want := l2.Ledger().App(1).Accesses()
	if calls != want {
		t.Errorf("hook fired %d times, L2 saw %d accesses", calls, want)
	}
	if calls == 0 {
		t.Error("hook never fired")
	}
}

func TestDeterministicRuns(t *testing.T) {
	once := func() (uint64, uint64) {
		l2 := sharedL2()
		s := New(l2, Config{})
		for i := uint16(1); i <= 2; i++ {
			g := workload.MustNew("parser", uint64(i)<<36, 42)
			if err := s.AddCore(i, g); err != nil {
				t.Fatal(err)
			}
		}
		run(t, s, 60000)
		led := l2.Ledger()
		return led.Total.Hits, led.Total.Misses
	}
	h1, m1 := once()
	h2, m2 := once()
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
		if err := s.AddCore(uint16(i), workload.NewLoop("l", uint64(i)<<36, 4096, 0, rng.New(1))); err != nil {
			t.Fatalf("core %d rejected: %v", i, err)
		}
	}
	if err := s.AddCore(99, workload.NewLoop("l", 99<<36, 4096, 0, rng.New(1))); err == nil {
		t.Error("17th core accepted")
	}
}

func TestTimingThrottlesMissBoundCore(t *testing.T) {
	const refs = 200000
	l2 := sharedL2()
	s := New(l2, Config{})
	// Core 0: tiny loop (all L1 hits after warmup). Core 1: huge
	// pointer chase (every reference misses the L1, and the L2 too).
	if err := s.AddCore(1, workload.NewLoop("hot", 1<<36, 4*addr.KB, 0, rng.New(1))); err != nil {
		t.Fatal(err)
	}
	if err := s.AddCore(2, workload.NewPointerChase("chase", 2<<36, 32*addr.MB, 64, 0, rng.New(2))); err != nil {
		t.Fatal(err)
	}
	run(t, s, refs)
	chase := l2.Ledger().App(2)
	if chase.MissRate() < 0.99 {
		t.Errorf("chase L2 miss rate = %v, want memory-bound (~1)", chase.MissRate())
	}
	// The stalled core must issue far fewer references (roughly the
	// latency ratio, ~200x; demand at least 20x).
	slow := chase.Accesses()
	if fast := refs - slow; fast < 20*slow {
		t.Errorf("issue counts: hot=%d chase=%d; timing model not throttling", fast, slow)
	}
}

// captureDigestWant is the sha256 of the mix12 capture below: the
// captured L1-miss stream and the L2 ledger. It pins the substrate's
// simulated behaviour, so a change to the ledger or the run path that
// alters any simulated number fails here.
const captureDigestWant = "b662c5adb72f0494ef9e065a6e4dee0be14fa1a64717e4153efb1b662f1b9754"

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
	run(t, s, 200_000)
	// Every captured miss is one L2 access.
	if n := l2.Ledger().Total.Accesses(); n != uint64(len(s.Captured())) {
		t.Errorf("L2 saw %d accesses, %d misses captured", n, len(s.Captured()))
	}

	h := sha256.New()
	hashStream(h, s.Captured())
	hashLedger(h, l2.Ledger())
	if got := hex.EncodeToString(h.Sum(nil)); got != captureDigestWant {
		t.Errorf("capture digest = %s, want %s (%d refs captured)", got, captureDigestWant, len(s.Captured()))
	}
}

// hashStream writes each reference of refs to h as 12 bytes.
func hashStream(h io.Writer, refs []trace.Ref) {
	var buf [12]byte
	for _, r := range refs {
		binary.LittleEndian.PutUint64(buf[0:8], r.Addr)
		binary.LittleEndian.PutUint16(buf[8:10], r.ASID)
		buf[10], buf[11] = r.CPU, byte(r.Kind)
		h.Write(buf[:])
	}
}

// hashLedger writes led's total and per-ASID counts to h.
func hashLedger(h io.Writer, led *stats.Ledger) {
	fmt.Fprintf(h, "total %d %d\n", led.Total.Hits, led.Total.Misses)
	for _, asid := range led.ASIDs() {
		hm := led.App(asid)
		fmt.Fprintf(h, "asid %d %d %d\n", asid, hm.Hits, hm.Misses)
	}
}

// TestRunAllocsIndependentOfLength guards the run path against
// per-reference heap allocation: a capture-off Run of the twelve-app mix
// allocates as much at 100K processor references as at 1M (the cores
// and their chunks are built up front, the L2 ledger's cells at each
// ASID's first access; the L1 filters keep no ledger). A garbage
// collection, or the runtime's own work during a long run, shifts the
// count by a few, so the collector is off while measuring and each
// length takes the least of three runs.
func TestRunAllocsIndependentOfLength(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(refs int) uint64 {
		least := uint64(math.MaxUint64)
		for range 3 {
			s := New(sharedL2(), Config{})
			if err := s.AddMix(workload.MixedNames, 2006); err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run(t, s, refs)
			runtime.ReadMemStats(&after)
			least = min(least, after.Mallocs-before.Mallocs)
		}
		return least
	}
	if short, long := allocs(100_000), allocs(1_000_000); short != long {
		t.Errorf("Run allocates %d times at 100K references and %d at 1M, want the same", short, long)
	}
}

// TestCaptureBytesPerRef pins what a capturing Run allocates per
// captured L1 miss: the exact-size []trace.Ref that Captured returns,
// 16 bytes a reference, and the byte blocks a Run records its misses in
// before it decodes them there, about 4 bytes a reference rounded up to
// whole blocks (20.6 in all). The bound leaves headroom over that and
// fails a capture that holds the stream twice, as 16-byte trace.Ref
// blocks copied into the slice (34). The mix is the twelve-app capture
// at 1M processor references; the collector is off while measuring,
// and the test takes the least of three runs.
func TestCaptureBytesPerRef(t *testing.T) {
	const refs, bound = 1_000_000, 24.0
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	least := math.Inf(1)
	for range 3 {
		s := New(sharedL2(), Config{CaptureL1Misses: true})
		if err := s.AddMix(workload.MixedNames, 2006); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(t, s, refs)
		runtime.ReadMemStats(&after)
		least = min(least, float64(after.TotalAlloc-before.TotalAlloc)/float64(len(s.Captured())))
	}
	t.Logf("%.2f bytes allocated per captured reference", least)
	if least > bound {
		t.Errorf("a capturing Run allocates %.2f bytes per captured reference, want at most %.0f", least, bound)
	}
}
