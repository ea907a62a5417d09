package molecular

// Property-based tests of the fast-path block index (index.go). The
// differential oracle at the repo root locks whole-simulation behaviour
// to the linear probe model; these properties pin the index's
// maintenance contract directly, for ANY operation interleaving:
//
//   - Exactly-once: every resident line of every owned molecule is
//     indexed to exactly that molecule, and the index holds nothing
//     else — after arbitrary access/grow/shrink/rebalance/retire/
//     corrupt/invalidate/rehome sequences, in either lookup mode.
//   - No stale entries: a molecule leaving its region (withdrawal,
//     retirement, rebalance) takes every one of its index entries
//     with it.
//   - Mode agreement: Contains answers identically through the index
//     and through the exhaustive scan.

import (
	"testing"
	"testing/quick"

	"molcache/internal/addr"
	"molcache/internal/rng"
	"molcache/internal/trace"
)

// verifyIndexBijection rebuilds each region's residency by scanning the
// replacement view and demands the index be exactly that mapping.
func verifyIndexBijection(t *testing.T, c *Cache) bool {
	t.Helper()
	for _, r := range c.Regions() {
		resident := make(map[uint64]*Molecule)
		for _, row := range r.rows {
			for _, m := range row {
				for _, ln := range m.lines {
					if !ln.valid() {
						continue
					}
					if prev, dup := resident[ln.block()]; dup {
						t.Logf("region %d: block %#x resident in molecules %d and %d",
							r.asid, ln.block(), prev.id, m.id)
						return false
					}
					resident[ln.block()] = m
				}
			}
		}
		if len(resident) != r.index.size() {
			t.Logf("region %d: %d lines resident, index holds %d", r.asid, len(resident), r.index.size())
			return false
		}
		for b, m := range resident {
			if got := r.index.holder(b); got != m.id {
				t.Logf("region %d: block %#x resident in %d, index names %d", r.asid, b, m.id, got)
				return false
			}
		}
	}
	return true
}

// TestPropertyIndexExactlyOnce: after any randomized operation sequence
// — including mid-run lookup-mode flips, so both paths' maintenance is
// exercised — the index is exactly the residency relation.
func TestPropertyIndexExactlyOnce(t *testing.T) {
	f := func(seed uint64, ops []byte) bool {
		c := propCache(t, RandyReplacement, seed)
		src := rng.New(seed ^ 0x1d8)
		for _, op := range ops {
			r := c.Region(uint16(1 + int(op)%2))
			switch (op >> 1) % 8 {
			case 0, 1: // access bursts dominate, as in any real run
				for i := 0; i < 24; i++ {
					c.Access(trace.Ref{
						Addr: uint64(r.asid)<<36 | uint64(src.Intn(1<<18)),
						ASID: r.asid,
						Kind: trace.Kind(src.Intn(2)),
					})
				}
			case 2:
				if _, err := c.Grow(r, 1+int(op>>4)%3); err != nil {
					return false
				}
			case 3:
				c.Shrink(r, 1+int(op>>4)%3)
			case 4:
				c.Rebalance(r)
			case 5:
				// Retire an arbitrary not-yet-failed molecule.
				id := src.Intn(c.TotalMolecules())
				if m := c.Molecule(id); m != nil && !m.Failed() {
					if _, err := c.RetireMolecule(id); err != nil {
						t.Log(err)
						return false
					}
				}
			case 6:
				if _, _, err := c.CorruptLine(src.Intn(c.TotalMolecules()), src.Intn(int(c.linesPerMol))); err != nil {
					t.Log(err)
					return false
				}
			case 7:
				c.UseReferenceProbe(!c.ReferenceProbe())
			}
			if !verifyIndexBijection(t, c) {
				return false
			}
			if vs := c.CheckInvariants(); len(vs) != 0 {
				t.Log(vs)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropertyIndexScanAgreement: Contains answers identically through
// the block index and through the exhaustive molecule scan, for any
// address against a warmed cache.
func TestPropertyIndexScanAgreement(t *testing.T) {
	c := propCache(t, LRUDirect, 2006)
	f := func(a uint64) bool {
		c.UseReferenceProbe(false)
		viaIndex := c.Contains(a)
		c.UseReferenceProbe(true)
		viaScan := c.Contains(a)
		c.UseReferenceProbe(false)
		return viaIndex == viaScan
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestIndexDropsRetiredMolecule: retiring an owned molecule removes all
// of its entries; the survivors' entries are untouched.
func TestIndexDropsRetiredMolecule(t *testing.T) {
	c := propCache(t, RandyReplacement, 11)
	r := c.Region(1)
	var victim *Molecule
	for _, m := range r.molecules() {
		if m.validLines() > 0 {
			victim = m
			break
		}
	}
	if victim == nil {
		t.Fatal("warmup left region 1 with no resident lines")
	}
	blocks := victim.ValidBlocks()
	if _, err := c.RetireMolecule(victim.ID()); err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if r.index.holder(b) == victim.id {
			t.Errorf("block %#x still indexed to retired molecule %d", b, victim.ID())
		}
	}
	r.index.each(func(id, slot int) {
		if id == victim.id {
			t.Errorf("retired molecule %d still indexed at slot %d", victim.ID(), slot)
		}
	})
	if !verifyIndexBijection(t, c) {
		t.Error("index diverged from residency after retirement")
	}
}

// TestIndexDropsWithdrawnMolecules: a shrink's withdrawn molecules leave
// no entries behind, and the index still mirrors residency exactly.
func TestIndexDropsWithdrawnMolecules(t *testing.T) {
	c := propCache(t, RandyReplacement, 12)
	r := c.Region(2)
	before := r.MoleculeCount()
	n, _ := c.Shrink(r, 2)
	if n == 0 {
		t.Fatalf("shrink withdrew nothing from a %d-molecule region", before)
	}
	r.index.each(func(id, slot int) {
		if m := c.molsByID[id]; !m.owned || m.asid != r.asid {
			t.Errorf("slot %d indexed to molecule %d which left the region", slot, m.id)
		}
	})
	if !verifyIndexBijection(t, c) {
		t.Error("index diverged from residency after shrink")
	}
}

// TestIndexSurvivesRebalance: a row rebalance (which flushes and
// re-rows a molecule) leaves the index exact.
func TestIndexSurvivesRebalance(t *testing.T) {
	c := MustNew(Config{
		TotalSize:    256 * addr.KB,
		MoleculeSize: 8 * addr.KB,
		Policy:       RandyReplacement,
		Seed:         13,
	})
	if _, err := c.CreateRegion(1, RegionOptions{HomeCluster: 0, HomeTile: 0}); err != nil {
		t.Fatal(err)
	}
	src := rng.New(77)
	r := c.Region(1)
	for i := 0; i < 4096; i++ {
		c.Access(trace.Ref{Addr: 1<<36 | uint64(src.Intn(1<<18)), ASID: 1, Kind: trace.Read})
	}
	if !c.Rebalance(r) {
		t.Skip("replacement view too even to rebalance")
	}
	if !verifyIndexBijection(t, c) {
		t.Error("index diverged from residency after rebalance")
	}
	if vs := c.CheckInvariants(); len(vs) != 0 {
		t.Error(vs)
	}
}
