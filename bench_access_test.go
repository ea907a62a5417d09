// Access-path benchmarks: the fast-path block index against the linear
// probe oracle, over region size × line factor × replacement policy,
// on a pure hit stream (the steady state the O(1) index exists for),
// and the paper's twelve-application mix replayed into the Table 2
// simulator (BenchmarkAccessMix12), where the tenants interleave
// reference by reference and resizing runs.
package molcache_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"molcache"
	"molcache/internal/addr"
	"molcache/internal/cmp"
	"molcache/internal/molecular"
	"molcache/internal/resize"
	"molcache/internal/stats"
	"molcache/internal/trace"
	"molcache/internal/workload"
)

// benchPolicies is the access-bench grid's policy axis.
var benchPolicies = []molecular.ReplacementKind{
	molecular.RandomReplacement, molecular.RandyReplacement, molecular.LRUDirect,
}

// hotCache builds a single-region cache of exactly `mols` molecules and
// warms a working set that the policy keeps resident forever: one line
// per direct-mapped slot for the randomized policies (distinct slots, so
// no fill ever evicts a set member) and the full region capacity for
// LRU-Direct (whose deterministic invalid-first fill converges in one
// pass). After warmup the stream hits forever.
func hotCache(tb testing.TB, policy molecular.ReplacementKind, mols, lineFactor int, reference bool) (*molecular.Cache, []trace.Ref) {
	tb.Helper()
	c, err := molecular.New(molecular.Config{
		TotalSize:       1 * addr.MB,
		MoleculeSize:    8 * addr.KB,
		TilesPerCluster: 4,
		Policy:          policy,
		Seed:            2006,
	})
	if err != nil {
		tb.Fatal(err)
	}
	c.UseReferenceProbe(reference)
	if _, err := c.CreateRegion(1, molecular.RegionOptions{
		HomeCluster: 0, HomeTile: 0,
		InitialMolecules: mols,
		LineFactor:       lineFactor,
	}); err != nil {
		tb.Fatal(err)
	}
	linesPerMol := int(c.Config().MoleculeSize / c.Config().LineSize)
	ws := linesPerMol
	if policy == molecular.LRUDirect {
		// LRU-Direct's invalid-first victim would park a one-line-per-slot
		// set entirely in the first molecule of each hashed row, leaving
		// the reference scan trivially short. Its fill is deterministic,
		// though, so a full-capacity set converges in one pass and spreads
		// the hit stream across every molecule of the region — the steady
		// state the index exists for.
		ws = mols * linesPerMol
	}
	refs := make([]trace.Ref, ws)
	for b := 0; b < ws; b++ {
		refs[b] = trace.Ref{Addr: uint64(b) * c.Config().LineSize, ASID: 1, Kind: trace.Read}
	}
	for pass := 0; pass < 2; pass++ {
		for _, r := range refs {
			c.Access(r)
		}
	}
	return c, refs
}

// benchAccessHot drives the warmed hit stream through one configuration.
func benchAccessHot(b *testing.B, policy molecular.ReplacementKind, mols, lineFactor int, reference bool) {
	c, refs := hotCache(b, policy, mols, lineFactor, reference)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(refs[i%len(refs)])
	}
}

// BenchmarkAccessHot is the grid: policy × region size × line factor,
// each on the block index and on the reference scan. Compare fast
// vs. reference ns/op for the lookup speedup; allocs/op must be 0 on
// both (the access path allocates nothing in steady state).
func BenchmarkAccessHot(b *testing.B) {
	for _, policy := range benchPolicies {
		for _, mols := range []int{16, 64} {
			for _, lf := range []int{1, 4} {
				for _, path := range []string{"fast", "reference"} {
					policy, mols, lf, ref := policy, mols, lf, path == "reference"
					b.Run(fmt.Sprintf("%s/mol%d/lf%d/%s", policy, mols, lf, path), func(b *testing.B) {
						benchAccessHot(b, policy, mols, lf, ref)
					})
				}
			}
		}
	}
}

// mix12Trace is Table 2's twelve-application L1-miss stream (ASIDs
// 1-12), captured once per process.
var mix12Trace = sync.OnceValues(func() ([]trace.Ref, error) {
	return cmp.CaptureMix(workload.MixedNames, 2_000_000, 2006)
})

// newMix12Sim builds the Table 2 simulator, empty: 6 MB in 3 clusters
// of 4 tiles, 8 KB molecules, Randy, application i+1 homed on cluster
// i/4, tile i%4, and Algorithm 1's AdaptiveGlobal controller at 25%
// goals.
func newMix12Sim(tb testing.TB) *molcache.Simulator {
	tb.Helper()
	mc, err := molecular.New(molecular.Config{
		TotalSize:       6 * addr.MB,
		MoleculeSize:    8 * addr.KB,
		LineSize:        64,
		TilesPerCluster: 4,
		Clusters:        3,
		Policy:          molecular.RandyReplacement,
		Seed:            2006,
	})
	if err != nil {
		tb.Fatal(err)
	}
	goals := make(map[uint16]float64, len(workload.MixedNames))
	for i := range workload.MixedNames {
		asid := uint16(i + 1)
		goals[asid] = 0.25
		if _, err := mc.CreateRegion(asid, molecular.RegionOptions{HomeCluster: i / 4, HomeTile: i % 4}); err != nil {
			tb.Fatal(err)
		}
	}
	ctrl, err := resize.New(mc, resize.Config{Trigger: resize.AdaptiveGlobal, Goals: goals})
	if err != nil {
		tb.Fatal(err)
	}
	return &molcache.Simulator{Cache: mc, Controller: ctrl}
}

// mix12Window is the AccessBatch window of BenchmarkAccessMix12/batch:
// molsim's default -batch, and the window _bench's replay-mix12 uses.
const mix12Window = 4096

// BenchmarkAccessMix12 replays the paper's mixed traffic: twelve
// tenants interleaved reference by reference, misses and fills, and
// resize passes — the costs a one-tenant hit stream cannot show. An op
// is one reference. `access` calls Simulator.Access per reference;
// `batch` replays the same capture in AccessBatch windows of
// mix12Window references, the way _bench's replay-mix12 drives it, so
// it pays whatever a batch costs beyond its accesses. Every pass over
// the capture starts a fresh simulator (built with the timer stopped),
// as the paper's runs do.
func BenchmarkAccessMix12(b *testing.B) {
	refs, err := mix12Trace()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("access", func(b *testing.B) {
		var sim *molcache.Simulator
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i % len(refs)
			if j == 0 {
				b.StopTimer()
				sim = newMix12Sim(b)
				b.StartTimer()
			}
			sim.Access(refs[j])
		}
	})
	b.Run("batch", func(b *testing.B) {
		var sim *molcache.Simulator
		b.ReportAllocs()
		b.ResetTimer()
		for done := 0; done < b.N; {
			j := done % len(refs)
			if j == 0 {
				b.StopTimer()
				sim = newMix12Sim(b)
				b.StartTimer()
			}
			n := min(mix12Window, len(refs)-j, b.N-done)
			sim.AccessBatch(refs[j : j+n])
			done += n
		}
	})
}

// TestAccessHotPathZeroAllocs pins the allocation-elimination claim
// deterministically (benchmarks only report; this fails the build):
// a steady-state hit allocates nothing, on either path and with a
// metrics registry attached — for one warmed tenant, and for two hit in
// alternation, one of them at an ASID past the region table's dense
// bound.
func TestAccessHotPathZeroAllocs(t *testing.T) {
	for _, tc := range []struct{ reference, metrics bool }{{false, false}, {true, false}, {false, true}} {
		c, refs := hotCache(t, molecular.RandyReplacement, 64, 1, tc.reference)
		if tc.metrics {
			c.AttachTelemetry(nil, molcache.NewRegistry())
		}
		hitsBefore := c.Ledger().Total.Hits
		i := 0
		allocs := testing.AllocsPerRun(1000, func() {
			c.Access(refs[i%len(refs)])
			i++
		})
		if allocs != 0 {
			t.Errorf("%+v: %v allocs per hit, want 0", tc, allocs)
		}
		if c.Ledger().Total.Hits == hitsBefore {
			t.Errorf("%+v: warmed stream did not hit; the property is vacuous", tc)
		}
	}

	t.Run("interleaved", func(t *testing.T) {
		for _, reference := range []bool{false, true} {
			c, refs := hotCache(t, molecular.RandyReplacement, 16, 1, reference)
			// The second tenant sits above the dense bound, on another
			// tile, with its own copy of the first's warmed set.
			const overflow = stats.DenseASIDs + 44
			if _, err := c.CreateRegion(overflow, molecular.RegionOptions{
				HomeCluster: 0, HomeTile: 1, InitialMolecules: 16,
			}); err != nil {
				t.Fatal(err)
			}
			mixed := make([]trace.Ref, 0, 2*len(refs))
			for _, r := range refs {
				o := r
				o.ASID, o.Addr = overflow, r.Addr|1<<40
				mixed = append(mixed, r, o)
			}
			for pass := 0; pass < 2; pass++ {
				for _, r := range mixed {
					c.Access(r)
				}
			}
			hitsBefore := [2]uint64{c.Ledger().App(1).Hits, c.Ledger().App(overflow).Hits}
			i := 0
			allocs := testing.AllocsPerRun(1000, func() {
				c.Access(mixed[i%len(mixed)])
				i++
			})
			if allocs != 0 {
				t.Errorf("reference=%v: %v allocs per interleaved hit, want 0", reference, allocs)
			}
			if c.Ledger().App(1).Hits == hitsBefore[0] || c.Ledger().App(overflow).Hits == hitsBefore[1] {
				t.Errorf("reference=%v: a warmed tenant did not hit; the property is vacuous", reference)
			}
		}
	})
}

// batchSim wraps a warmed hot cache (hotCache) in a Simulator whose
// resize controller never fires, so AccessBatch's own cost is what a
// window pays.
func batchSim(tb testing.TB) (*molcache.Simulator, []trace.Ref) {
	tb.Helper()
	c, refs := hotCache(tb, molecular.RandyReplacement, 64, 1, false)
	ctrl, err := resize.New(c, resize.Config{Trigger: resize.Constant, Period: 1 << 40})
	if err != nil {
		tb.Fatal(err)
	}
	window := make([]trace.Ref, 0, mix12Window)
	for len(window) < mix12Window {
		window = append(window, refs[len(window)%len(refs)])
	}
	return &molcache.Simulator{Cache: c, Controller: ctrl}, window
}

// TestAccessBatchZeroAllocs pins the batch replay's allocation claim:
// once a cache is warm, a 4,096-reference window of hits through
// AccessBatch allocates nothing, because the results live in a buffer
// the simulator reuses. It also pins that buffer's documented
// lifetime: the slice AccessBatch returns is valid until that
// simulator's next AccessBatch call, which overwrites it in place; a
// longer batch grows the buffer; another simulator has its own.
func TestAccessBatchZeroAllocs(t *testing.T) {
	sim, window := batchSim(t)
	hitsBefore := sim.Cache.Ledger().Total.Hits
	allocs := testing.AllocsPerRun(20, func() {
		sim.AccessBatch(window)
	})
	if allocs != 0 {
		t.Errorf("%v allocs per %d-reference AccessBatch window, want 0", allocs, len(window))
	}
	if got := sim.Cache.Ledger().Total.Hits - hitsBefore; got < 20*uint64(len(window)) {
		t.Errorf("%d hits over 21 windows of %d references; the warmed stream must hit", got, len(window))
	}

	// Results match the per-reference fold on an identical simulator.
	twin, _ := batchSim(t)
	first := sim.AccessBatch(window[:3])
	want := []molcache.AccessResult{twin.Access(window[0]), twin.Access(window[1]), twin.Access(window[2])}
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("AccessBatch results %+v, Access fold %+v", first, want)
	}
	// The next call reuses the same storage and overwrites it.
	miss := trace.Ref{Addr: 1 << 40, ASID: 1, Kind: trace.Write}
	second := sim.AccessBatch([]trace.Ref{miss})
	if &second[0] != &first[0] {
		t.Error("the next AccessBatch did not reuse the simulator's results buffer")
	}
	if first[0] != second[0] || first[0].Hit {
		t.Errorf("the reused buffer holds %+v, want the miss %+v just returned", first[0], second[0])
	}
	// A longer batch grows the buffer; another simulator owns its own.
	long := sim.AccessBatch(append(window, window[0]))
	if len(long) != len(window)+1 || &long[0] == &first[0] {
		t.Errorf("a %d-reference batch returned %d results in the old buffer", len(window)+1, len(long))
	}
	if other := twin.AccessBatch(window[:1]); &other[0] == &long[0] {
		t.Error("two simulators share one results buffer")
	}
}
