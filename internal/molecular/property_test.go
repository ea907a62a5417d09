package molecular

// Property-based tests of the replacement view (the paper's 2-D sparse
// matrix of rows). The deterministic unit tests in cache_test.go pin
// specific behaviours; these drive randomized address streams and
// grow/shrink/rebalance sequences through testing/quick and assert the
// structural properties that must hold for ANY input:
//
//   - Randy's victim always comes from the hashed row of the address
//     (row = (addr / moleculeSize) mod rows), never another row.
//   - A victim always belongs to the requesting region: replacement can
//     never evict from another application's partition (the isolation
//     property the paper's regions exist to provide).
//   - Row widths always sum to the region's molecule count and no row is
//     ever empty ("every row of the matrix must contain at least one
//     molecule").
//   - The cache-wide structural invariants (CheckInvariants) survive any
//     interleaving of accesses, grows, shrinks and rebalances.

import (
	"testing"
	"testing/quick"

	"molcache/internal/addr"
	"molcache/internal/rng"
	"molcache/internal/trace"
)

// propCache builds a small two-region cache (4 tiles x 8 molecules of
// 8KB) and warms both regions with a deterministic access stream so the
// replacement views have non-trivial shape.
func propCache(t *testing.T, policy ReplacementKind, seed uint64) *Cache {
	t.Helper()
	c := MustNew(Config{
		TotalSize:    256 * addr.KB,
		MoleculeSize: 8 * addr.KB,
		Policy:       policy,
		Seed:         seed,
	})
	for asid := uint16(1); asid <= 2; asid++ {
		if _, err := c.CreateRegion(asid, RegionOptions{
			HomeCluster: 0, HomeTile: int(asid - 1),
		}); err != nil {
			t.Fatal(err)
		}
	}
	src := rng.New(seed ^ 0xfeed)
	for i := 0; i < 4096; i++ {
		asid := uint16(1 + i%2)
		c.Access(trace.Ref{
			Addr: uint64(asid)<<36 | uint64(src.Intn(1<<18)),
			ASID: asid,
			Kind: trace.Read,
		})
	}
	return c
}

// TestPropertyRandyVictimFromHashedRow: for arbitrary addresses, Randy's
// victim is drawn from exactly the row the paper's hash names.
func TestPropertyRandyVictimFromHashedRow(t *testing.T) {
	c := propCache(t, RandyReplacement, 2006)
	r := c.Region(1)
	if len(r.rows) < 2 {
		t.Fatalf("warmup left only %d rows; property would be vacuous", len(r.rows))
	}
	f := func(a uint64) bool {
		want := r.rowFor(a)
		v := r.victim(a, a/c.cfg.LineSize)
		return v != nil && v.row == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestPropertyVictimStaysInRegion: no policy ever selects a victim from
// another region's molecules (or a free molecule) — replacement respects
// partition isolation.
func TestPropertyVictimStaysInRegion(t *testing.T) {
	for _, policy := range []ReplacementKind{
		RandomReplacement, RandyReplacement, LRUDirect,
	} {
		policy := policy
		t.Run(string(policy), func(t *testing.T) {
			c := propCache(t, policy, 2006)
			f := func(a uint64, pick bool) bool {
				asid := uint16(1)
				if pick {
					asid = 2
				}
				r := c.Region(asid)
				v := r.victim(a, a/c.cfg.LineSize)
				return v != nil && v.owned && v.asid == asid
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestPropertyRowForInRange: the row hash lands inside the view for any
// address, at any row count the region passes through.
func TestPropertyRowForInRange(t *testing.T) {
	c := propCache(t, RandyReplacement, 7)
	r := c.Region(1)
	f := func(a uint64) bool {
		row := r.rowFor(a)
		return row >= 0 && row < len(r.rows)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestPropertyRowWidths: after any randomized operation sequence, every
// row is non-empty, the widths sum to the molecule count, and the
// cache-wide invariants hold.
func TestPropertyRowWidths(t *testing.T) {
	f := func(seed uint64, ops []byte) bool {
		c := propCache(t, RandyReplacement, seed)
		src := rng.New(seed ^ 0x0b5)
		for _, op := range ops {
			r := c.Region(uint16(1 + int(op)%2))
			switch (op >> 1) % 4 {
			case 0: // a burst of accesses
				for i := 0; i < 32; i++ {
					c.Access(trace.Ref{
						Addr: uint64(r.asid)<<36 | uint64(src.Intn(1<<18)),
						ASID: r.asid,
						Kind: trace.Read,
					})
				}
			case 1:
				if _, err := c.Grow(r, 1+int(op>>3)%3); err != nil {
					return false
				}
			case 2:
				c.Shrink(r, 1+int(op>>3)%3)
			case 3:
				c.Rebalance(r)
			}
			for _, reg := range c.Regions() {
				total := 0
				for _, w := range reg.Rows() {
					if w == 0 {
						t.Logf("region %d has an empty row", reg.ASID())
						return false
					}
					total += w
				}
				if total != reg.MoleculeCount() {
					t.Logf("region %d row widths sum %d != count %d",
						reg.ASID(), total, reg.MoleculeCount())
					return false
				}
			}
			if vs := c.CheckInvariants(); len(vs) != 0 {
				t.Log(vs)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPropertyRandomSingleRow: the Random policy keeps its "one logical
// row" shape through growth, so its victim draw stays uniform over the
// whole partition.
func TestPropertyRandomSingleRow(t *testing.T) {
	f := func(seed uint64, grows uint8) bool {
		c := propCache(t, RandomReplacement, seed)
		r := c.Region(1)
		if _, err := c.Grow(r, int(grows)%8); err != nil {
			return false
		}
		return len(r.Rows()) == 1 && r.Rows()[0] == r.MoleculeCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
