package molecular

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"molcache/internal/trace"
)

// Most tests below corrupt one field of a small healthy cache and
// assert the rule, and the check within it, that must fire.

// highASID is an ordinary application numbered past stats.DenseASIDs,
// so the cache finds its region in the region table's overflow map.
const highASID uint16 = 0xFFFF

// auditCache returns a healthy cache of one cluster of four tiles:
// regions 1 and 2 of two molecules each on home tiles 0 and 1, both
// holding the same 48 blocks (legal cross-region residency), region 3
// of one molecule on tile 2 holding blocks of its own in other slots,
// and one retired molecule on tile 3.
func auditCache(t *testing.T) *Cache {
	t.Helper()
	c := MustNew(smallConfig(RandyReplacement))
	for _, p := range []struct {
		asid    uint16
		tile, n int
	}{{1, 0, 2}, {2, 1, 2}, {3, 2, 1}} {
		if _, err := c.CreateRegion(p.asid, RegionOptions{HomeCluster: 0, HomeTile: p.tile, InitialMolecules: p.n}); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 48; i++ {
		c.Access(ref(1, i*64, trace.Write))
		c.Access(ref(2, i*64, trace.Read))
		c.Access(ref(3, 1<<20+(64+i)*64, trace.Read))
	}
	if _, err := c.RetireMolecule(c.clusters[0].tiles[3].free[0].id); err != nil {
		t.Fatal(err)
	}
	if vs := c.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("fixture is not healthy: %v", vs)
	}
	return c
}

// wantViolation fails t unless vs holds a violation of rule whose
// detail contains detail.
func wantViolation(t *testing.T, vs []Violation, rule, detail string) {
	t.Helper()
	for _, v := range vs {
		if v.Rule == rule && strings.Contains(v.Detail, detail) {
			return
		}
	}
	t.Errorf("no %s violation containing %q; got %v", rule, detail, vs)
}

// residentSlot returns a slot holding a line in m and empty in other.
func residentSlot(t *testing.T, m, other *Molecule) int {
	t.Helper()
	for i := range m.lines {
		if m.lines[i].valid() && !other.lines[i].valid() {
			return i
		}
	}
	t.Fatalf("no slot valid in molecule %d and empty in %d", m.id, other.id)
	return -1
}

// freeMolecule returns the top of tile tid's free pool.
func freeMolecule(c *Cache, tid int) *Molecule {
	free := c.clusters[0].tiles[tid].free
	return free[len(free)-1]
}

func TestHealthyCacheAuditsClean(t *testing.T) {
	for _, policy := range []ReplacementKind{RandomReplacement, RandyReplacement, LRUDirect} {
		for _, lf := range []int{1, 2} {
			cfg := smallConfig(policy)
			cfg.LineFactor = lf
			c := MustNew(cfg)
			if _, err := c.CreateRegion(highASID, RegionOptions{HomeCluster: 0, HomeTile: 0, InitialMolecules: 2}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 8192; i++ {
				asid := uint16(1 + i%3)
				if i%17 == 0 {
					asid = highASID
				}
				// Every application addresses its own window, as in every
				// mix and every served tenant.
				c.Access(ref(asid, uint64(asid)<<32|uint64(i*7919%3000)*64, trace.Kind(i%2)))
				switch i {
				case 2000:
					c.Grow(c.Region(1), 3)
				case 4000:
					c.Shrink(c.Region(2), 1)
					c.Rebalance(c.Region(1))
				case 6000:
					// Retire an owned molecule mid-flight and keep going.
					if _, err := c.RetireMolecule(c.Region(1).molecules()[0].id); err != nil {
						t.Fatal(err)
					}
				}
			}
			if vs := c.CheckInvariants(); len(vs) != 0 {
				t.Errorf("%s lf%d: healthy cache flagged: %v", policy, lf, vs)
			}
		}
	}
}

// TestOverlappingASIDsAuditClean lets four applications address the
// same blocks, with highASID's region created first on tile 0, where
// round-robin placement then homes ASID 1 too: every region is its own
// lookup domain, so each fill lands in the requestor's region and no
// region ever holds a block twice.
func TestOverlappingASIDsAuditClean(t *testing.T) {
	for _, policy := range []ReplacementKind{RandomReplacement, RandyReplacement, LRUDirect} {
		for _, lf := range []int{1, 2} {
			cfg := smallConfig(policy)
			cfg.LineFactor = lf
			c := MustNew(cfg)
			if _, err := c.CreateRegion(highASID, RegionOptions{HomeCluster: 0, HomeTile: 0, InitialMolecules: 2}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 8192; i++ {
				asid := uint16(1 + i%3)
				if i%17 == 0 {
					asid = highASID
				}
				c.Access(ref(asid, uint64(i*7919%3000)*64, trace.Kind(i%2)))
			}
			if vs := c.CheckInvariants(); len(vs) != 0 {
				t.Errorf("%s lf%d: %d violations, first %v", policy, lf, len(vs), vs[0])
			}
		}
	}
}

// TestIndexedHealthyCacheAuditsClean checks that an index naming every
// resident line's holder, and nothing else, passes index-consistency,
// and that each region's index is populated, so the rule is not vacuous.
func TestIndexedHealthyCacheAuditsClean(t *testing.T) {
	c := auditCache(t)
	for _, asid := range []uint16{1, 2, 3} {
		r := c.Region(asid)
		resident := 0
		for _, m := range r.molecules() {
			for _, ln := range m.lines {
				if !ln.valid() {
					continue
				}
				resident++
				if h := r.index.holder(ln.block()); h != m.id {
					t.Errorf("region %d: block %#x of molecule %d not indexed to it", asid, ln.block(), m.id)
				}
			}
		}
		if resident == 0 || r.index.size() != resident {
			t.Errorf("region %d: index holds %d entries, %d lines resident", asid, r.index.size(), resident)
		}
	}
	if vs := c.CheckInvariants(); len(vs) != 0 {
		t.Errorf("indexed healthy cache flagged: %v", vs)
	}
}

// TestLiveCacheCleanAndCorrupted audits a cache whose regions are made
// on demand by three ASIDs addressing the same blocks, clean before and
// after a molecule is retired mid-run, and then flagged once one of its
// fields is corrupted.
func TestLiveCacheCleanAndCorrupted(t *testing.T) {
	cfg := smallConfig(RandyReplacement)
	cfg.Seed = 7
	c := MustNew(cfg)
	run := func(k trace.Kind) {
		for i := 0; i < 4096; i++ {
			c.Access(ref(uint16(i%3), uint64(i%1024)*64, k))
		}
	}
	run(trace.Read)
	if vs := c.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("live cache flagged: %v", vs)
	}
	if _, err := c.RetireMolecule(0); err != nil {
		t.Fatal(err)
	}
	run(trace.Write)
	if vs := c.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("cache flagged after retirement: %v", vs)
	}
	m := c.Region(2).molecules()[0]
	m.asid = 1
	wantViolation(t, c.CheckInvariants(), "asid-isolation", "carries ASID 1 inside region 2")
}

func TestCrossRegionResidencyIsLegal(t *testing.T) {
	c := auditCache(t)
	b := uint64(5)
	if c.Region(1).index.get(b) < 0 || c.Region(2).index.get(b) < 0 {
		t.Fatal("block 5 is not resident in both regions; the test is vacuous")
	}
	if vs := c.CheckInvariants(); len(vs) != 0 {
		t.Errorf("cross-region residency flagged: %v", vs)
	}
}

func TestDuplicateLineInOneRegion(t *testing.T) {
	c := auditCache(t)
	ms := c.Region(1).molecules()
	i := residentSlot(t, ms[0], ms[1])
	// The second molecule gets a copy of the first's line in the same
	// direct-mapped slot; the index still names the first.
	ms[1].lines[i] = ms[0].lines[i]
	ms[1].resident++
	wantViolation(t, c.CheckInvariants(), "duplicate-line",
		"resident in molecules "+strconv.Itoa(ms[0].id)+" and "+strconv.Itoa(ms[1].id)+" of region 1")
}

func TestDoubleOwnedMolecule(t *testing.T) {
	c := auditCache(t)
	m := c.Region(1).molecules()[0]
	r2 := c.Region(2)
	r2.rows[0] = append(r2.rows[0], m)
	r2.count++
	r2.byTile[m.tile.id] = append(r2.byTile[m.tile.id], m)
	vs := c.CheckInvariants()
	wantViolation(t, vs, "molecule-accounting", "owned by regions 1 and 2")
	wantViolation(t, vs, "asid-isolation", "carries ASID 1 inside region 2")
}

func TestOrphanedOwnedMolecule(t *testing.T) {
	c := auditCache(t)
	tile := c.clusters[0].tiles[3]
	m := freeMolecule(c, 3)
	tile.free = tile.free[:len(tile.free)-1]
	m.owned, m.asid = true, 9
	wantViolation(t, c.CheckInvariants(), "molecule-accounting", "owned (ASID 9) but in no region's rows")
}

func TestASIDLeak(t *testing.T) {
	c := auditCache(t)
	// Region 2's molecule now decodes for ASID 1: it would serve the
	// wrong application.
	c.Region(2).molecules()[0].asid = 1
	wantViolation(t, c.CheckInvariants(), "asid-isolation", "carries ASID 1 inside region 2")
}

func TestFreeAndOwnedSimultaneously(t *testing.T) {
	c := auditCache(t)
	m := c.Region(1).molecules()[0]
	m.tile.free = append(m.tile.free, m)
	wantViolation(t, c.CheckInvariants(), "molecule-accounting", "in 2 states")
}

func TestFreeListMisfiled(t *testing.T) {
	c := auditCache(t)
	t0, t1 := c.clusters[0].tiles[0], c.clusters[0].tiles[1]
	m := freeMolecule(c, 0)
	t0.free = t0.free[:len(t0.free)-1]
	t1.free = append(t1.free, m)
	wantViolation(t, c.CheckInvariants(), "molecule-accounting", "on tile 1's free list but sits on tile 0")

	c = auditCache(t)
	t0 = c.clusters[0].tiles[0]
	t0.free = append(t0.free, freeMolecule(c, 0))
	wantViolation(t, c.CheckInvariants(), "molecule-accounting", "listed twice on free lists")

	c = auditCache(t)
	m = freeMolecule(c, 0)
	m.lines[3] = lineWord(3, false)
	m.resident = 1
	wantViolation(t, c.CheckInvariants(), "molecule-accounting", "free molecule "+strconv.Itoa(m.id)+" holds 1 lines")
}

func TestRetiredMoleculeHoldsLines(t *testing.T) {
	c := auditCache(t)
	var retired *Molecule
	for _, m := range c.molsByID {
		if m.failed {
			retired = m
		}
	}
	retired.lines[0] = lineWord(0x80, true)
	retired.resident = 1
	wantViolation(t, c.CheckInvariants(), "retired-state", "retired molecule "+strconv.Itoa(retired.id)+" holds 1 lines")
}

func TestAccountingSumBroken(t *testing.T) {
	c := auditCache(t)
	// A free molecule vanishes from its tile: the three populations no
	// longer cover the cache.
	tile := c.clusters[0].tiles[3]
	m := freeMolecule(c, 3)
	tile.free = tile.free[:len(tile.free)-1]
	for i, x := range tile.molecules {
		if x == m {
			tile.molecules = append(tile.molecules[:i:i], tile.molecules[i+1:]...)
			break
		}
	}
	vs := c.CheckInvariants()
	wantViolation(t, vs, "molecule-accounting", "!= total 32")
	if len(vs) != 1 {
		t.Errorf("want only the sum, got %v", vs)
	}
}

func TestCheckInvariantsAuditsResidentCount(t *testing.T) {
	c := auditCache(t)
	m := c.Region(1).molecules()[0]
	if m.resident == 0 {
		t.Fatal("warmed molecule holds no lines; the check is vacuous")
	}
	m.resident--
	wantViolation(t, c.CheckInvariants(), "molecule-accounting",
		"molecule "+strconv.Itoa(m.id)+" counts "+strconv.Itoa(m.resident)+" resident lines")
}

func TestEmptyRowAndBadTileIndex(t *testing.T) {
	c := auditCache(t)
	r := c.Region(2)
	r.rows = append(r.rows, nil)
	wantViolation(t, c.CheckInvariants(), "region-accounting", "region 2 row "+strconv.Itoa(len(r.rows)-1)+" is empty")

	// Region 1's molecules sit on tile 0; list one under tile 3.
	c = auditCache(t)
	r = c.Region(1)
	m := r.byTile[0][0]
	r.byTile[0] = r.byTile[0][1:]
	r.byTile[3] = append(r.byTile[3], m)
	vs := c.CheckInvariants()
	wantViolation(t, vs, "region-accounting", "lists molecule "+strconv.Itoa(m.id)+" under tile 3 but it sits on tile 0")
	wantViolation(t, vs, "region-accounting", "region 1 tile 0 listing holds 1 molecules, rows hold 2")
}

func TestTileListingMismatch(t *testing.T) {
	// A free molecule of tile 0 replaces one of region 1's in its listing.
	c := auditCache(t)
	r := c.Region(1)
	r.byTile[0] = []*Molecule{r.byTile[0][0], freeMolecule(c, 0)}
	vs := c.CheckInvariants()
	wantViolation(t, vs, "region-accounting", "under tile 0 but not in its rows")

	// One of region 1's molecules is listed twice, the other not at all.
	c = auditCache(t)
	r = c.Region(1)
	r.byTile[0] = []*Molecule{r.byTile[0][0], r.byTile[0][0]}
	wantViolation(t, c.CheckInvariants(), "region-accounting", "twice under its tiles")

	// The listing loses a molecule.
	c = auditCache(t)
	r = c.Region(1)
	r.byTile[0] = r.byTile[0][:1]
	wantViolation(t, c.CheckInvariants(), "region-accounting", "tile 0 listing holds 1 molecules, rows hold 2")
}

func TestRowFieldMismatch(t *testing.T) {
	c := auditCache(t)
	c.Region(2).molecules()[1].row = 5
	wantViolation(t, c.CheckInvariants(), "region-accounting", "row field 5")
}

func TestRegionCountMismatch(t *testing.T) {
	c := auditCache(t)
	c.Region(2).count = 3
	wantViolation(t, c.CheckInvariants(), "region-accounting", "region 2 count 3 != 2 molecules in rows")
}

func TestRegionMoleculeNotOwned(t *testing.T) {
	c := auditCache(t)
	m := c.Region(2).molecules()[0]
	m.owned = false
	wantViolation(t, c.CheckInvariants(), "region-accounting", "molecule "+strconv.Itoa(m.id)+" in region 2 but not owned")
}

func TestIndexMissingResidentBlock(t *testing.T) {
	c := auditCache(t)
	r := c.Region(1)
	m := r.molecules()[0]
	i := residentSlot(t, m, r.molecules()[1])
	r.indexRemove(m.lines[i].block(), m)
	wantViolation(t, c.CheckInvariants(), "index-consistency", "of molecule "+strconv.Itoa(m.id)+" missing from the index")
}

func TestIndexNamesWrongHolder(t *testing.T) {
	c := auditCache(t)
	r := c.Region(1)
	ms := r.molecules()
	i := residentSlot(t, ms[0], ms[1])
	// The entry for the block moves to ms[1], which holds nothing in
	// that slot: the confirming lookup skips it, the audit's raw probe
	// reports it.
	b := ms[0].lines[i].block()
	r.indexRemove(b, ms[0])
	r.indexAdd(b, ms[1])
	wantViolation(t, c.CheckInvariants(), "index-consistency",
		"resident in molecule "+strconv.Itoa(ms[0].id)+" but indexed to "+strconv.Itoa(ms[1].id))
}

func TestIndexHoldsStaleEntry(t *testing.T) {
	// An entry for a block no molecule holds: no resident line leads to
	// it, but the entry count does.
	c := auditCache(t)
	r := c.Region(2)
	n := r.index.size()
	r.indexAdd(0x99999, r.molecules()[0])
	wantViolation(t, c.CheckInvariants(), "index-consistency",
		"region 2: index holds "+strconv.Itoa(n+1)+" entries, "+strconv.Itoa(n)+" lines resident")
}

func TestViolationsInFixedOrder(t *testing.T) {
	c := auditCache(t)
	c.Region(2).molecules()[0].row = 7
	c.Region(1).molecules()[0].row = 6
	t0 := c.clusters[0].tiles[0]
	t0.free = append(t0.free, freeMolecule(c, 0))
	vs := c.CheckInvariants()
	if len(vs) != 3 {
		t.Fatalf("want 3 violations, got %v", vs)
	}
	// Free lists first, then regions in ASID order.
	for i, want := range []string{"listed twice", "row field 6", "row field 7"} {
		if !strings.Contains(vs[i].Detail, want) {
			t.Errorf("violation %d is %v, want one containing %q", i, vs[i], want)
		}
	}
	if again := c.CheckInvariants(); !reflect.DeepEqual(vs, again) {
		t.Errorf("second audit differs:\n%v\n%v", vs, again)
	}
}

// TestCheckInvariantsAllocsIndependentOfLines pins the audit to the
// live structures: it allocates the same on a nearly cold cache as on
// the same cache after ten times more lines are resident.
func TestCheckInvariantsAllocsIndependentOfLines(t *testing.T) {
	c := MustNew(Config{TotalSize: 1 << 20, TilesPerCluster: 4, Clusters: 2, Seed: 3})
	if _, err := c.CreateRegion(highASID, RegionOptions{HomeCluster: 0, HomeTile: 0, InitialMolecules: 2}); err != nil {
		t.Fatal(err)
	}
	fill := func(from, to int) {
		for i := from; i < to; i++ {
			asid := uint16(1 + i%4)
			if i%11 == 0 {
				asid = highASID
			}
			c.Access(ref(asid, uint64(asid)<<32|uint64(i/5)*64, trace.Write))
		}
	}
	resident := func() (n int) {
		for _, m := range c.molsByID {
			n += m.resident
		}
		return n
	}
	fill(0, 200)
	cold, coldLines := testing.AllocsPerRun(20, func() { c.CheckInvariants() }), resident()
	fill(200, 20_000)
	warm, warmLines := testing.AllocsPerRun(20, func() { c.CheckInvariants() }), resident()
	if warmLines < 10*coldLines {
		t.Fatalf("resident lines grew %d -> %d, under ten times", coldLines, warmLines)
	}
	if vs := c.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("healthy cache flagged: %v", vs)
	}
	if warm != cold {
		t.Errorf("audit allocates %v times with %d lines resident, %v with %d", cold, coldLines, warm, warmLines)
	}
}
