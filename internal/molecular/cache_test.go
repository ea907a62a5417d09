package molecular

import (
	"strings"
	"testing"
	"testing/quick"

	"molcache/internal/addr"
	"molcache/internal/trace"
)

// smallConfig is a 256KB cache: 1 cluster x 4 tiles x 8 molecules of 8KB.
func smallConfig(policy ReplacementKind) Config {
	return Config{
		TotalSize:       256 * addr.KB,
		MoleculeSize:    8 * addr.KB,
		LineSize:        64,
		TilesPerCluster: 4,
		Clusters:        1,
		Policy:          policy,
		Seed:            1,
	}
}

func ref(asid uint16, a uint64, k trace.Kind) trace.Ref {
	return trace.Ref{Addr: a, ASID: asid, Kind: k}
}

func TestConfigDefaults(t *testing.T) {
	c := MustNew(Config{TotalSize: 1 * addr.MB})
	cfg := c.Config()
	if cfg.MoleculeSize != 8*addr.KB || cfg.LineSize != 64 ||
		cfg.TilesPerCluster != 4 || cfg.Clusters != 1 ||
		cfg.Policy != RandyReplacement || cfg.LineFactor != 1 {
		t.Errorf("defaults = %+v", cfg)
	}
	if cfg.InitialMolecules != cfg.MoleculesPerTile()/2 {
		t.Errorf("initial molecules = %d, want half tile (%d)",
			cfg.InitialMolecules, cfg.MoleculesPerTile()/2)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{TotalSize: 0}, // empty
		{TotalSize: 1 * addr.MB, MoleculeSize: 3000},               // molecule not pow2
		{TotalSize: 1 * addr.MB, LineFactor: 3},                    // line factor not pow2
		{TotalSize: 64 * addr.KB, TilesPerCluster: 4, Clusters: 2}, // 1 molecule/tile
		{TotalSize: 1 * addr.MB, Policy: "Bogus"},
		{TotalSize: 1 * addr.MB, InitialMolecules: 4096},
		{TotalSize: 1 * addr.MB, MoleculeSize: 8 * addr.KB, LineSize: 64, LineFactor: 256},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) succeeded, want error", cfg)
		}
	}
}

// TestConfigValidateEncodingBounds pins the two geometry bounds the
// layout sets: a line word holds a block of at most 62 bits, so lines
// are at least 4 bytes, and a block-index entry names a molecule and a
// line slot in 32 bits. Each bound is reported by name, a geometry on
// it is accepted (the index entry's is checked without building the
// 128 GB cache), and a 4-byte-line cache keeps its largest blocks
// exact.
func TestConfigValidateEncodingBounds(t *testing.T) {
	_, err := New(Config{TotalSize: 64 * addr.KB, MoleculeSize: 1 * addr.KB, LineSize: 2})
	if err == nil || !strings.Contains(err.Error(), "below 4 bytes") {
		t.Errorf("2-byte lines: err = %v, want the 4-byte bound", err)
	}
	// 2^24 molecules need 25 ID bits, and 128 lines 7 slot bits: 32.
	onBound := Config{TotalSize: 128 << 30, MoleculeSize: 8 * addr.KB, TilesPerCluster: 4}.withDefaults()
	if err := onBound.Validate(); err != nil {
		t.Errorf("2^24 molecules of 128 lines: %v", err)
	}
	over := onBound
	over.TotalSize *= 2
	if err := over.Validate(); err == nil || !strings.Contains(err.Error(), "32-bit entry") {
		t.Errorf("2^25 molecules of 128 lines: err = %v, want the index entry bound", err)
	}

	c := MustNew(Config{TotalSize: 64 * addr.KB, MoleculeSize: 1 * addr.KB, LineSize: 4, Policy: LRUDirect})
	top := ^uint64(0) &^ 3 // block 2^62-1
	for _, a := range []uint64{top, top &^ (1 << 63), 0} {
		if c.Access(ref(1, a, trace.Write)).Hit {
			t.Errorf("cold access to %#x hit", a)
		}
	}
	for _, a := range []uint64{top, top &^ (1 << 63), 0} {
		if !c.Access(ref(1, a, trace.Read)).Hit || !c.Contains(a) {
			t.Errorf("block of %#x not resident after its fill", a)
		}
	}
	if vs := c.CheckInvariants(); len(vs) != 0 {
		t.Error(vs)
	}
}

func TestNameAndGeometry(t *testing.T) {
	cfg := Config{TotalSize: 8 * addr.MB, Clusters: 4, TilesPerCluster: 4}.withDefaults()
	if got := cfg.Name(); got != "8MB Molecular (Randy)" {
		t.Errorf("Name = %q", got)
	}
	if got := cfg.TileSize(); got != 512*addr.KB {
		t.Errorf("TileSize = %d", got)
	}
	if got := cfg.MoleculesPerTile(); got != 64 {
		t.Errorf("MoleculesPerTile = %d", got)
	}
}

func TestMissThenHit(t *testing.T) {
	c := MustNew(smallConfig(RandyReplacement))
	if c.Access(ref(1, 0x4000, trace.Read)).Hit {
		t.Error("cold access hit")
	}
	res := c.Access(ref(1, 0x4000, trace.Read))
	if !res.Hit {
		t.Error("second access missed")
	}
	if !c.Access(ref(1, 0x403f, trace.Read)).Hit {
		t.Error("same-line access missed")
	}
	if c.Access(ref(1, 0x4040, trace.Read)).Hit {
		t.Error("next line hit without being fetched (line factor 1)")
	}
}

// The headline isolation property: a request from one application can
// never hit data cached by another (ASID-gated decode).
func TestASIDIsolation(t *testing.T) {
	c := MustNew(smallConfig(RandyReplacement))
	for a := uint64(0); a < 64*1024; a += 64 {
		c.Access(ref(1, a, trace.Write))
	}
	for a := uint64(0); a < 64*1024; a += 64 {
		if c.Access(ref(2, a, trace.Read)).Hit {
			t.Fatalf("ASID 2 hit ASID 1's line at %#x", a)
		}
	}
	if vs := c.CheckInvariants(); len(vs) != 0 {
		t.Error(vs)
	}
}

func TestAutoAdmitCreatesRegions(t *testing.T) {
	c := MustNew(smallConfig(RandyReplacement))
	c.Access(ref(7, 0, trace.Read))
	r := c.Region(7)
	if r == nil {
		t.Fatal("no region auto-created")
	}
	if r.MoleculeCount() != 4 { // half of the 8-molecule tile
		t.Errorf("initial molecules = %d, want 4", r.MoleculeCount())
	}
}

func TestRoundRobinPlacement(t *testing.T) {
	cfg := smallConfig(RandyReplacement)
	cfg.Clusters = 2
	cfg.TotalSize = 512 * addr.KB
	c := MustNew(cfg)
	c.Access(ref(1, 0, trace.Read))
	c.Access(ref(2, 0, trace.Read))
	c.Access(ref(3, 0, trace.Read))
	if c.Region(1).HomeTile().Cluster() == c.Region(2).HomeTile().Cluster() {
		t.Error("apps 1 and 2 share a cluster; want round-robin spread")
	}
	if c.Region(1).HomeTile() == c.Region(3).HomeTile() {
		t.Error("apps 1 and 3 share a home tile")
	}
}

func TestExplicitPlacement(t *testing.T) {
	c := MustNew(smallConfig(RandyReplacement))
	r, err := c.CreateRegion(9, RegionOptions{HomeCluster: 0, HomeTile: 2, InitialMolecules: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.HomeTile().ID() != 2 || r.MoleculeCount() != 3 {
		t.Errorf("region home=%d count=%d", r.HomeTile().ID(), r.MoleculeCount())
	}
	if _, err := c.CreateRegion(9, RegionOptions{}); err == nil {
		t.Error("duplicate CreateRegion succeeded")
	}
	if _, err := c.CreateRegion(10, RegionOptions{HomeCluster: 5, HomeTile: 0}); err == nil {
		t.Error("out-of-range placement succeeded")
	}
}

func TestRandyRowHashing(t *testing.T) {
	cfg := smallConfig(RandyReplacement)
	c := MustNew(cfg)
	r, err := c.CreateRegion(1, RegionOptions{HomeCluster: 0, HomeTile: 0, InitialMolecules: 4})
	if err != nil {
		t.Fatal(err)
	}
	rows := len(r.Rows())
	if rows != 4 {
		t.Fatalf("initial Randy rows = %d, want 4", rows)
	}
	// Fill from addresses hashing to each row; the victim must be in
	// that row, observable via RowMissCounts.
	molSize := cfg.MoleculeSize
	for want := 0; want < rows; want++ {
		r.ResetEpoch()
		a := uint64(want) * molSize // (a/molSize)%rows == want
		c.Access(ref(1, a, trace.Read))
		counts := r.RowMissCounts()
		for i, n := range counts {
			if i == want && n != 1 {
				t.Errorf("addr %#x: row %d misses = %d, want 1", a, i, n)
			}
			if i != want && n != 0 {
				t.Errorf("addr %#x: unexpected miss in row %d", a, i)
			}
		}
	}
}

func TestRandomSingleRow(t *testing.T) {
	c := MustNew(smallConfig(RandomReplacement))
	c.Access(ref(1, 0, trace.Read))
	r := c.Region(1)
	if got := len(r.Rows()); got != 1 {
		t.Errorf("Random region rows = %d, want 1", got)
	}
}

func TestVariableLineSize(t *testing.T) {
	cfg := smallConfig(RandyReplacement)
	cfg.LineFactor = 4
	c := MustNew(cfg)
	res := c.Access(ref(1, 0x10000, trace.Read))
	if res.Hit || res.LinesFetched != 4 {
		t.Fatalf("miss should fetch 4 lines, got %+v", res)
	}
	// The three group companions must now hit without further fetches.
	for off := uint64(64); off < 256; off += 64 {
		if !c.Access(ref(1, 0x10000+off, trace.Read)).Hit {
			t.Errorf("companion line at +%d missed", off)
		}
	}
	// Outside the aligned group: miss.
	if c.Access(ref(1, 0x10100, trace.Read)).Hit {
		t.Error("line outside the group hit")
	}
}

func TestVariableLineSizeWritebackUnit(t *testing.T) {
	cfg := smallConfig(RandyReplacement)
	cfg.LineFactor = 2
	cfg.InitialMolecules = 1 // force self-conflict
	c := MustNew(cfg)
	if _, err := c.CreateRegion(1, RegionOptions{HomeCluster: 0, HomeTile: 0, InitialMolecules: 1}); err != nil {
		t.Fatal(err)
	}
	c.Access(ref(1, 0, trace.Write)) // dirty line 0, clean companion 1
	// Conflicting group (same molecule index): one molecule = 8KB = 128
	// lines; block 128 maps to index 0 again.
	res := c.Access(ref(1, 128*64, trace.Read))
	if res.LinesEvicted != 2 {
		t.Errorf("evicted %d lines, want the whole group (2)", res.LinesEvicted)
	}
	if res.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1 (only the dirty member)", res.Writebacks)
	}
}

func TestHierarchicalLookupRemoteHit(t *testing.T) {
	c := MustNew(smallConfig(RandyReplacement))
	r, err := c.CreateRegion(1, RegionOptions{HomeCluster: 0, HomeTile: 0, InitialMolecules: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Home tile has 8 molecules, all taken; grow 4 more -> they must
	// come from sibling tiles.
	got, err := c.Grow(r, 4)
	if err != nil || got != 4 {
		t.Fatalf("Grow = (%d, %v)", got, err)
	}
	remote := false
	for _, m := range r.molecules() {
		if m.Tile() != r.HomeTile() {
			remote = true
		}
	}
	if !remote {
		t.Fatal("growth did not spill to sibling tiles")
	}
	// Drive accesses until some hit is satisfied remotely.
	seenRemote := false
	for a := uint64(0); a < 2*1024*1024 && !seenRemote; a += 64 {
		c.Access(ref(1, a, trace.Read))
		if res := c.Access(ref(1, a, trace.Read)); res.Hit && res.RemoteTileHit {
			seenRemote = true
		}
	}
	if !seenRemote {
		t.Error("no remote-tile hit observed despite region spanning tiles")
	}
}

func TestProbeCountsBounded(t *testing.T) {
	c := MustNew(smallConfig(RandyReplacement))
	c.Access(ref(1, 0, trace.Read))
	r := c.Region(1)
	for a := uint64(0); a < 1024*1024; a += 4096 {
		res := c.Access(ref(1, a, trace.Read))
		if res.TagProbes > r.MoleculeCount() {
			t.Fatalf("probed %d molecules, region only has %d", res.TagProbes, r.MoleculeCount())
		}
		if res.TagProbes == 0 {
			t.Fatal("access probed zero molecules")
		}
	}
	if c.AverageProbes() <= 0 {
		t.Error("average probes not recorded")
	}
}

func TestGrowShrinkInvariants(t *testing.T) {
	c := MustNew(smallConfig(RandyReplacement))
	r, err := c.CreateRegion(1, RegionOptions{HomeCluster: 0, HomeTile: 0, InitialMolecules: 4})
	if err != nil {
		t.Fatal(err)
	}
	free0 := c.FreeMolecules()
	got, err := c.Grow(r, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Errorf("Grow got %d, want 10 (cluster has %d free)", got, free0)
	}
	if c.FreeMolecules() != free0-10 {
		t.Errorf("free = %d, want %d", c.FreeMolecules(), free0-10)
	}
	if vs := c.CheckInvariants(); len(vs) != 0 {
		t.Fatal(vs)
	}
	w, _ := c.Shrink(r, 6)
	if w != 6 || r.MoleculeCount() != 8 {
		t.Errorf("Shrink = %d, count = %d", w, r.MoleculeCount())
	}
	if vs := c.CheckInvariants(); len(vs) != 0 {
		t.Fatal(vs)
	}
	// Never shrinks below one molecule.
	w, _ = c.Shrink(r, 100)
	if r.MoleculeCount() != 1 || w != 7 {
		t.Errorf("Shrink to floor: withdrawn=%d count=%d", w, r.MoleculeCount())
	}
}

func TestGrowExhaustsCluster(t *testing.T) {
	c := MustNew(smallConfig(RandyReplacement))
	r, _ := c.CreateRegion(1, RegionOptions{HomeCluster: 0, HomeTile: 0, InitialMolecules: 8})
	got, err := c.Grow(r, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if got != 24 { // 32 in cluster - 8 initial
		t.Errorf("Grow = %d, want 24 (cluster exhausted)", got)
	}
	if c.FreeMolecules() != 0 {
		t.Errorf("free = %d, want 0", c.FreeMolecules())
	}
	got, _ = c.Grow(r, 1)
	if got != 0 {
		t.Error("Grow found molecules in an exhausted cluster")
	}
}

func TestShrinkFlushesAndWritesBack(t *testing.T) {
	c := MustNew(smallConfig(RandyReplacement))
	r, _ := c.CreateRegion(1, RegionOptions{HomeCluster: 0, HomeTile: 0, InitialMolecules: 2})
	// Dirty lots of lines across both molecules.
	for a := uint64(0); a < 16*1024; a += 64 {
		c.Access(ref(1, a, trace.Write))
	}
	_, wb := c.Shrink(r, 1)
	if wb == 0 {
		t.Error("withdrawing a dirty molecule produced no writebacks")
	}
	// The withdrawn molecule must be clean for its next owner: data from
	// app 1 must not be visible to app 2 even after reallocation.
	r2, _ := c.CreateRegion(2, RegionOptions{HomeCluster: 0, HomeTile: 0, InitialMolecules: 1})
	_ = r2
	for a := uint64(0); a < 16*1024; a += 64 {
		if c.Access(ref(2, a, trace.Read)).Hit {
			t.Fatalf("app 2 hit stale data at %#x after molecule reuse", a)
		}
	}
}

func TestWithdrawPrefersColdMolecule(t *testing.T) {
	c := MustNew(smallConfig(RandyReplacement))
	r, _ := c.CreateRegion(1, RegionOptions{HomeCluster: 0, HomeTile: 0, InitialMolecules: 3})
	mols := r.molecules()
	mols[0].missCount = 10
	mols[1].missCount = 2
	mols[2].missCount = 7
	cold := mols[1]
	if got := r.withdrawCandidate(); got != cold {
		t.Errorf("withdrawCandidate picked molecule with missCount %d, want 2", got.missCount)
	}
}

func TestContains(t *testing.T) {
	c := MustNew(smallConfig(RandyReplacement))
	if c.Contains(0x9000) {
		t.Fatal("cold cache reports a resident line")
	}
	c.Access(ref(1, 0x9000, trace.Write))
	for _, on := range []bool{false, true} {
		c.UseReferenceProbe(on)
		if !c.Contains(0x9000) || !c.Contains(0x903f) {
			t.Errorf("reference probe %v: line not resident after write", on)
		}
		if c.Contains(0x9040) {
			t.Errorf("reference probe %v: neighbouring line reported resident", on)
		}
	}
}

func TestLRUDirectPrefersInvalidThenOldest(t *testing.T) {
	cfg := smallConfig(LRUDirect)
	c := MustNew(cfg)
	r, _ := c.CreateRegion(1, RegionOptions{HomeCluster: 0, HomeTile: 0, InitialMolecules: 2})
	// Force both molecules into one row for determinism.
	for len(r.Rows()) > 1 {
		mols := r.rows[len(r.rows)-1]
		m := mols[0]
		r.detach(m)
		m.tile.release(m)
		cl := r.home.cluster
		m2 := cl.takeFreePreferring(r.home)
		r.attach(m2, 0)
	}
	// Two conflicting blocks (same index, molecule = 128 lines).
	c.Access(ref(1, 0, trace.Read))      // goes to some molecule, other stays invalid at idx 0
	c.Access(ref(1, 128*64, trace.Read)) // must fill the *invalid* slot
	if !c.Access(ref(1, 0, trace.Read)).Hit {
		t.Error("LRU-Direct evicted a line while an invalid slot existed")
	}
	if !c.Access(ref(1, 128*64, trace.Read)).Hit {
		t.Error("second block not resident")
	}
	// Make block 0 the most recently touched, then force a third
	// conflicting fill: LRU-Direct must evict block 128*64.
	c.Access(ref(1, 0, trace.Read))
	c.Access(ref(1, 256*64, trace.Read))
	if !c.Access(ref(1, 0, trace.Read)).Hit {
		t.Error("LRU-Direct evicted the most recently used block")
	}
}

// Property: under random interleavings of accesses, grows and shrinks
// across several apps, the structural invariants always hold and
// isolation is never violated.
func TestRandomOpsInvariantProperty(t *testing.T) {
	f := func(ops []uint32) bool {
		c := MustNew(smallConfig(RandyReplacement))
		writers := map[uint64]uint16{} // line -> last writer
		for _, op := range ops {
			asid := uint16(op%3) + 1
			a := uint64(op>>4) % (512 * 1024)
			switch op % 7 {
			case 5:
				if r := c.Region(asid); r != nil {
					c.Shrink(r, 1)
				}
			case 6:
				if r := c.Region(asid); r != nil {
					if _, err := c.Grow(r, 1); err != nil {
						return false
					}
				}
			default:
				k := trace.Read
				if op%2 == 0 {
					k = trace.Write
				}
				res := c.Access(ref(asid, a, k))
				line := a &^ 63
				if res.Hit {
					if w, ok := writers[line]; ok && w != asid {
						return false // cross-ASID visibility
					}
				}
				if k == trace.Write {
					writers[line] = asid
				}
			}
		}
		return len(c.CheckInvariants()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLedgersAndWindows(t *testing.T) {
	c := MustNew(smallConfig(RandyReplacement))
	c.Access(ref(1, 0, trace.Read))
	c.Access(ref(1, 0, trace.Read))
	r := c.Region(1)
	if got := r.Ledger(); got.Hits != 1 || got.Misses != 1 {
		t.Errorf("region ledger = %+v", got)
	}
	if got := c.Ledger().App(1); got.Hits != 1 || got.Misses != 1 {
		t.Errorf("cache ledger = %+v", got)
	}
	w := r.Window().Roll()
	if w.Hits != 1 || w.Misses != 1 {
		t.Errorf("window = %+v", w)
	}
	g := c.GlobalWindow().Roll()
	if g.Accesses() != 2 {
		t.Errorf("global window = %+v", g)
	}
	if c.Addresses() != 2 {
		t.Errorf("addresses = %d", c.Addresses())
	}
}

func TestAverageMolecules(t *testing.T) {
	c := MustNew(smallConfig(RandyReplacement))
	r, _ := c.CreateRegion(1, RegionOptions{HomeCluster: 0, HomeTile: 0, InitialMolecules: 2})
	c.Access(ref(1, 0, trace.Read))
	c.Access(ref(1, 64, trace.Read))
	if _, err := c.Grow(r, 2); err != nil {
		t.Fatal(err)
	}
	c.Access(ref(1, 128, trace.Read))
	c.Access(ref(1, 192, trace.Read))
	// Two accesses at 2 molecules, two at 4: average 3.
	if got := r.AverageMolecules(); got != 3 {
		t.Errorf("AverageMolecules = %v, want 3", got)
	}
}

func TestResetEpoch(t *testing.T) {
	c := MustNew(smallConfig(RandyReplacement))
	c.Access(ref(1, 0, trace.Read))
	r := c.Region(1)
	anyMiss := false
	for _, n := range r.RowMissCounts() {
		anyMiss = anyMiss || n > 0
	}
	if !anyMiss {
		t.Fatal("no row miss recorded")
	}
	r.ResetEpoch()
	for _, n := range r.RowMissCounts() {
		if n != 0 {
			t.Error("row miss counts survived ResetEpoch")
		}
	}
	for _, m := range r.molecules() {
		if m.MissCount() != 0 {
			t.Error("molecule miss count survived ResetEpoch")
		}
	}
}
