package cache

import (
	"fmt"
	"testing"
	"testing/quick"

	"molcache/internal/engine"
	"molcache/internal/rng"
	"molcache/internal/trace"
)

// tiny returns a 4-set, 2-way, 64B-line cache (512B) for targeted tests.
func tiny() *Cache {
	return MustNew(Config{Size: 512, Ways: 2, LineSize: 64})
}

func read(a uint64) trace.Ref  { return trace.Ref{Addr: a, Kind: trace.Read} }
func write(a uint64) trace.Ref { return trace.Ref{Addr: a, Kind: trace.Write} }

func TestValidate(t *testing.T) {
	bad := []Config{
		{Size: 1000, Ways: 2, LineSize: 64}, // size not pow2
		{Size: 1024, Ways: 2, LineSize: 60}, // line not pow2
		{Size: 1024, Ways: 0, LineSize: 64}, // no ways
		{Size: 1024, Ways: 3, LineSize: 64}, // ways not pow2
		{Size: 128, Ways: 4, LineSize: 64},  // fewer lines than ways
		{Size: 64, Ways: 2, LineSize: 64},   // one line, two ways
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", cfg)
		}
	}
	good := Config{Size: 1 << 20, Ways: 4, LineSize: 64}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate(%+v) = %v", good, err)
	}
}

func TestName(t *testing.T) {
	if got := (Config{Size: 8 << 20, Ways: 4, LineSize: 64}).Name(); got != "8MB 4-way" {
		t.Errorf("Name = %q", got)
	}
	if got := (Config{Size: 8 << 20, Ways: 1, LineSize: 64}).Name(); got != "8MB DM" {
		t.Errorf("DM Name = %q", got)
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := tiny()
	if c.Access(read(0x1000)).Hit {
		t.Error("cold access hit")
	}
	if !c.Access(read(0x1000)).Hit {
		t.Error("second access missed")
	}
	if !c.Access(read(0x103f)).Hit {
		t.Error("same-line access missed")
	}
	if c.Access(read(0x1040)).Hit {
		t.Error("next-line access hit")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := tiny()
	// Set stride is 4 sets * 64B = 256B; these three map to set 0.
	a, b, x := uint64(0), uint64(256), uint64(512)
	c.Access(read(a))
	c.Access(read(b))
	c.Access(read(a)) // a is now MRU
	res := c.Access(read(x))
	if res.Hit || res.LinesEvicted != 1 {
		t.Fatalf("expected eviction on fill, got %+v", res)
	}
	if !c.Access(read(a)).Hit {
		t.Error("MRU line a was evicted")
	}
	if c.Access(read(b)).Hit {
		t.Error("LRU line b survived")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := tiny()
	c.Access(write(0))  // dirty
	c.Access(read(256)) // clean
	res := c.Access(read(512))
	if res.Writebacks != 1 {
		t.Errorf("evicting dirty line: writebacks = %d, want 1", res.Writebacks)
	}
	res = c.Access(read(768))
	if res.Writebacks != 0 {
		t.Errorf("evicting clean line: writebacks = %d, want 0", res.Writebacks)
	}
}

func TestWriteHitMarksDirty(t *testing.T) {
	c := tiny()
	c.Access(read(0))
	c.Access(write(0)) // hit, marks dirty
	c.Access(read(256))
	res := c.Access(read(512)) // evicts line 0 (LRU)
	if res.Writebacks != 1 {
		t.Errorf("write-hit line eviction: writebacks = %d, want 1", res.Writebacks)
	}
}

func TestDirectMapped(t *testing.T) {
	c := MustNew(Config{Size: 256, Ways: 1, LineSize: 64}) // 4 sets
	c.Access(read(0))
	if c.Access(read(256)).Hit { // same set, different tag
		t.Error("DM conflicting line hit")
	}
	if c.Access(read(0)).Hit {
		t.Error("DM original line survived a conflict")
	}
}

func TestTagProbesEqualWays(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 8} {
		c := MustNew(Config{Size: 4096, Ways: ways, LineSize: 64})
		if got := c.Access(read(0)).TagProbes; got != ways {
			t.Errorf("ways=%d: TagProbes = %d", ways, got)
		}
	}
}

func TestLedgerPerASID(t *testing.T) {
	c := tiny()
	c.Access(trace.Ref{Addr: 0, ASID: 1})
	c.Access(trace.Ref{Addr: 0, ASID: 1})
	c.Access(trace.Ref{Addr: 64, ASID: 2})
	if got := c.Ledger().App(1); got.Hits != 1 || got.Misses != 1 {
		t.Errorf("app 1 ledger = %+v", got)
	}
	if got := c.Ledger().App(2); got.Misses != 1 {
		t.Errorf("app 2 ledger = %+v", got)
	}
}

func TestFlush(t *testing.T) {
	c := tiny()
	c.Access(write(0))
	c.Access(read(64))
	if wb := c.Flush(); wb != 1 {
		t.Errorf("Flush writebacks = %d, want 1", wb)
	}
	if c.ValidLines() != 0 {
		t.Error("lines survived Flush")
	}
}

// Property: resident line count never exceeds capacity, and a hit is
// always preceded by a fill of the same line (checked via a shadow map).
func TestCacheInvariantsProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := MustNew(Config{Size: 1024, Ways: 2, LineSize: 64})
		resident := map[uint64]bool{} // shadow: lines ever filled
		for _, a16 := range addrs {
			a := uint64(a16)
			res := c.Access(read(a))
			lineAddr := a &^ 63
			if res.Hit && !resident[lineAddr] {
				return false // hit on a never-filled line
			}
			resident[lineAddr] = true
			if c.ValidLines() > 16 { // 1024/64 lines capacity
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: for a working set that fits, LRU reaches zero misses after
// the first sweep regardless of the sweep count.
func TestLRUFittingLoopConverges(t *testing.T) {
	c := MustNew(Config{Size: 4096, Ways: 4, LineSize: 64})
	misses := 0
	for sweep := 0; sweep < 5; sweep++ {
		for a := uint64(0); a < 4096; a += 64 {
			if !c.Access(read(a)).Hit {
				misses++
			}
		}
	}
	if misses != 64 {
		t.Errorf("misses = %d, want exactly the 64 cold misses", misses)
	}
}

// A looping working set slightly larger than a direct-mapped/LRU cache
// must thrash: miss rate near 1 after warmup. This is the mechanism
// behind art's Table 1 collapse, so the baseline must reproduce it.
func TestLRUThrashOnOversizedLoop(t *testing.T) {
	c := MustNew(Config{Size: 4096, Ways: 4, LineSize: 64})
	// 5120B loop over a 4096B cache.
	var misses, total int
	for sweep := 0; sweep < 10; sweep++ {
		for a := uint64(0); a < 5120; a += 64 {
			total++
			if !c.Access(read(a)).Hit {
				misses++
			}
		}
	}
	if rate := float64(misses) / float64(total); rate < 0.95 {
		t.Errorf("oversized loop miss rate = %v, want ~1 (LRU thrash)", rate)
	}
}

// Property: under any access sequence, per-set LRU never evicts the most
// recently used line of a set.
func TestLRUNeverEvictsMRUProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := MustNew(Config{Size: 1024, Ways: 4, LineSize: 64})
		var lastLine uint64
		haveLast := false
		for _, a16 := range addrs {
			a := uint64(a16)
			c.Access(read(a))
			line := a &^ 63
			if haveLast && lastLine != line {
				// The previous access's line must still be resident.
				if !c.Contains(lastLine) {
					return false
				}
			}
			lastLine, haveLast = line, true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// shadowLine is one resident line of the reference LRU model.
type shadowLine struct {
	addr  uint64 // line-aligned
	dirty bool
}

// shadowLRU is an independent model of an exact-LRU write-back,
// write-allocate cache: each set holds its resident lines in recency
// order, most recent first.
type shadowLRU struct {
	ways     int
	lineSize uint64
	sets     [][]shadowLine
}

func newShadowLRU(sets, ways int, lineSize uint64) *shadowLRU {
	return &shadowLRU{ways: ways, lineSize: lineSize, sets: make([][]shadowLine, sets)}
}

// access applies r and returns the result the cache must report.
func (m *shadowLRU) access(r trace.Ref) engine.Result {
	a := r.Addr &^ (m.lineSize - 1)
	idx := int(a/m.lineSize) % len(m.sets)
	set := m.sets[idx]
	res := engine.Result{TagProbes: m.ways, DataReads: 1}
	for i, ln := range set {
		if ln.addr == a {
			ln.dirty = ln.dirty || r.Kind == trace.Write
			copy(set[1:i+1], set[:i])
			set[0] = ln
			res.Hit = true
			return res
		}
	}
	res.LinesFetched = 1
	if len(set) == m.ways {
		res.LinesEvicted = 1
		if set[len(set)-1].dirty {
			res.Writebacks = 1
		}
		set = set[:len(set)-1]
	}
	m.sets[idx] = append([]shadowLine{{addr: a, dirty: r.Kind == trace.Write}}, set...)
	return res
}

// TestLRUMatchesShadowModel drives random reads and writes through
// caches of 1 to 16 ways and through the shadow model, and requires the
// same Result on every access (hit, fetches, evictions, writebacks, tag
// probes), then the same resident lines and as many dirty ones.
func TestLRUMatchesShadowModel(t *testing.T) {
	const sets, lineSize = 8, 64
	for _, ways := range []int{1, 2, 4, 8, 16} {
		for seed := uint64(1); seed <= 4; seed++ {
			name := fmt.Sprintf("ways=%d/seed=%d", ways, seed)
			c := MustNew(Config{Size: uint64(sets*ways) * lineSize, Ways: ways, LineSize: lineSize})
			m := newShadowLRU(sets, ways, lineSize)
			src := rng.New(seed)
			// Three times the capacity in lines: enough reuse to hit,
			// enough conflict to evict.
			span := 3 * sets * ways
			var hits, evictions int
			for i := 0; i < 4000; i++ {
				r := trace.Ref{
					Addr: uint64(src.Intn(span))*lineSize + uint64(src.Intn(lineSize)),
					ASID: uint16(1 + src.Intn(3)),
					Kind: trace.Read,
				}
				if src.Intn(4) == 0 {
					r.Kind = trace.Write
				}
				got, want := c.Access(r), m.access(r)
				if got != want {
					t.Fatalf("%s: access %d %+v = %+v, want %+v", name, i, r, got, want)
				}
				if got.Hit {
					hits++
				}
				evictions += got.LinesEvicted
			}
			if hits == 0 || evictions == 0 {
				t.Fatalf("%s: %d hits, %d evictions; the comparison is vacuous", name, hits, evictions)
			}
			var lines, dirty int
			for _, set := range m.sets {
				for _, want := range set {
					lines++
					if want.dirty {
						dirty++
					}
					if !c.Contains(want.addr) {
						t.Errorf("%s: line %#x is not resident", name, want.addr)
					}
				}
			}
			if got := c.ValidLines(); got != lines {
				t.Errorf("%s: %d resident lines, want %d", name, got, lines)
			}
			if got := c.Flush(); got != dirty {
				t.Errorf("%s: %d dirty lines, want %d", name, got, dirty)
			}
		}
	}
}

// TestTraditionalAccessZeroAllocs pins the set-associative access path
// as allocation-free: with telemetry detached and ASIDs below 256, a
// warmed cache serves hits and misses (with evictions and writebacks)
// without allocating. Every L1 miss of a CMP run goes through this path
// in the shared L2.
func TestTraditionalAccessZeroAllocs(t *testing.T) {
	const size = 16 << 10
	c := MustNew(Config{Size: size, Ways: 4, LineSize: 64})
	// Even references re-touch one hot line (always a hit); odd ones
	// sweep twice the capacity, which LRU thrashes (always a miss).
	var refs []trace.Ref
	for a := uint64(0); a < 2*size; a += 64 {
		asid := uint16(1 + a/64%4)
		refs = append(refs,
			trace.Ref{Addr: 0x40, ASID: asid, Kind: trace.Read},
			trace.Ref{Addr: 1<<20 + a, ASID: asid, Kind: trace.Write})
	}
	for _, r := range refs {
		c.Access(r)
	}
	before := c.Ledger().Total
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		c.Access(refs[i%len(refs)])
		i++
	})
	if allocs != 0 {
		t.Errorf("%v allocs per access, want 0", allocs)
	}
	after := c.Ledger().Total
	if after.Hits == before.Hits || after.Misses == before.Misses {
		t.Errorf("ledger %+v -> %+v: the run must both hit and miss", before, after)
	}
}

// TestProbeOutcomes walks one set of the tiny cache through Access's
// outcomes: a hit, and a miss whose fill evicts a valid line, clean or
// dirty.
func TestProbeOutcomes(t *testing.T) {
	type outcome struct{ hit, evicted, writeback bool }
	c := tiny()
	for i, tc := range []struct {
		ref  trace.Ref
		want outcome
	}{
		{read(0), outcome{}},                                 // cold fill of way 0
		{write(0), outcome{hit: true}},                       // clean hit, now dirty
		{write(0), outcome{hit: true}},                       // dirty hit
		{read(0), outcome{hit: true}},                        // reads keep it dirty
		{read(256), outcome{}},                               // cold fill of way 1
		{read(512), outcome{evicted: true, writeback: true}}, // evicts dirty line 0
		{read(768), outcome{evicted: true}},                  // evicts clean line 256
	} {
		res := c.Access(tc.ref)
		got := outcome{hit: res.Hit, evicted: res.LinesEvicted == 1, writeback: res.Writebacks == 1}
		if got != tc.want {
			t.Errorf("ref %d (%v): Access = %+v, want %+v", i, tc.ref, res, tc.want)
		}
	}
	if led := c.Ledger().Total; led.Hits != 3 || led.Misses != 4 {
		t.Errorf("ledger %+v after 3 hits and 4 misses", led)
	}
}
