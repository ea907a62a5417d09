package invariant

import (
	"strings"
	"testing"

	"molcache/internal/addr"
	"molcache/internal/molecular"
	"molcache/internal/trace"
)

// healthy builds a small, consistent snapshot: two regions of two
// molecules each on tiles 0 and 1, two free molecules, one retired.
func healthy() Snapshot {
	return Snapshot{
		TotalMolecules:  7,
		TilesPerCluster: 4,
		Molecules: []MoleculeState{
			{ID: 0, Tile: 0, ASID: 1, Owned: true, Row: 0, Blocks: []uint64{0x10, 0x20}},
			{ID: 1, Tile: 0, ASID: 1, Owned: true, Row: 0, Blocks: []uint64{0x31}},
			{ID: 2, Tile: 1, ASID: 2, Owned: true, Row: 0, Blocks: []uint64{0x10}},
			{ID: 3, Tile: 1, ASID: 2, Owned: true, Row: 1, Blocks: nil},
			{ID: 4, Tile: 0, Free: true},
			{ID: 5, Tile: 1, Free: true},
			{ID: 6, Tile: 0, Failed: true, Row: -1},
		},
		Regions: []RegionState{
			{ASID: 1, Count: 2, HomeTile: 0, Rows: [][]int{{0, 1}},
				TileCounts: map[int]int{0: 2}},
			{ASID: 2, Count: 2, HomeTile: 1, Rows: [][]int{{2}, {3}},
				TileCounts: map[int]int{1: 2}},
		},
	}
}

func rules(vs []Violation) string {
	var b strings.Builder
	for _, v := range vs {
		b.WriteString(v.Rule)
		b.WriteString(";")
	}
	return b.String()
}

func wantRule(t *testing.T, vs []Violation, rule string) {
	t.Helper()
	for _, v := range vs {
		if v.Rule == rule {
			return
		}
	}
	t.Errorf("no %q violation; got [%s]", rule, rules(vs))
}

func TestHealthySnapshotIsClean(t *testing.T) {
	if vs := Check(healthy()); len(vs) != 0 {
		t.Errorf("clean snapshot flagged: %v", vs)
	}
}

func TestCrossRegionResidencyIsLegal(t *testing.T) {
	// Molecules 0 (region 1) and 2 (region 2) both hold block 0x10 in
	// the healthy snapshot — legitimate cross-ASID residency.
	vs := Check(healthy())
	for _, v := range vs {
		if v.Rule == "duplicate-line" {
			t.Errorf("cross-region residency flagged: %v", v)
		}
	}
}

func TestDuplicateLineInOneRegion(t *testing.T) {
	s := healthy()
	// Molecule 1 now also holds 0x20, duplicating molecule 0's line
	// inside region 1's lookup domain.
	s.Molecules[1].Blocks = append(s.Molecules[1].Blocks, 0x20)
	wantRule(t, Check(s), "duplicate-line")
}

func TestSharedMoleculeDuplicateInDomain(t *testing.T) {
	s := healthy()
	// A shared molecule on the same cluster holding region 1's 0x10.
	s.TotalMolecules = 8
	s.Molecules = append(s.Molecules, MoleculeState{
		ID: 7, Tile: 2, ASID: SharedASID, Owned: true, Shared: true, Row: 0,
		Blocks: []uint64{0x10},
	})
	s.Regions = append(s.Regions, RegionState{
		ASID: SharedASID, Count: 1, HomeTile: 2, Rows: [][]int{{7}},
		TileCounts: map[int]int{2: 1},
	})
	wantRule(t, Check(s), "duplicate-line")
}

func TestDoubleOwnedMolecule(t *testing.T) {
	s := healthy()
	// Region 2 claims molecule 0, which region 1 already owns.
	s.Regions[1].Rows = [][]int{{2}, {3, 0}}
	s.Regions[1].Count = 3
	s.Regions[1].TileCounts = map[int]int{1: 2, 0: 1}
	vs := Check(s)
	wantRule(t, vs, "molecule-accounting")
	wantRule(t, vs, "asid-isolation") // molecule 0 carries ASID 1 inside region 2
}

func TestOrphanedOwnedMolecule(t *testing.T) {
	s := healthy()
	// Molecule 4 claims to be owned but sits in no region's rows.
	s.Molecules[4] = MoleculeState{ID: 4, Tile: 0, ASID: 9, Owned: true, Row: 0}
	wantRule(t, Check(s), "molecule-accounting")
}

func TestASIDLeak(t *testing.T) {
	s := healthy()
	// Molecule 2 flips to ASID 1 while still in region 2's view — its
	// decode stage would now serve the wrong application.
	s.Molecules[2].ASID = 1
	wantRule(t, Check(s), "asid-isolation")
}

func TestFreeAndOwnedSimultaneously(t *testing.T) {
	s := healthy()
	s.Molecules[0].Free = true
	wantRule(t, Check(s), "molecule-accounting")
}

func TestRetiredMoleculeHoldsLines(t *testing.T) {
	s := healthy()
	s.Molecules[6].Blocks = []uint64{0x99}
	wantRule(t, Check(s), "retired-state")
}

func TestAccountingSumBroken(t *testing.T) {
	s := healthy()
	s.TotalMolecules = 9 // two molecules unaccounted for
	wantRule(t, Check(s), "molecule-accounting")
}

func TestEmptyRowAndBadTileIndex(t *testing.T) {
	s := healthy()
	s.Regions[1].Rows = [][]int{{2, 3}, {}}
	vs := Check(s)
	wantRule(t, vs, "region-accounting")

	s = healthy()
	s.Regions[0].TileCounts = map[int]int{0: 1, 3: 1}
	wantRule(t, Check(s), "region-accounting")
}

func TestRowFieldMismatch(t *testing.T) {
	s := healthy()
	s.Molecules[3].Row = 5
	wantRule(t, Check(s), "region-accounting")
}

func TestCaptureCacheCleanAndCorrupted(t *testing.T) {
	cfg := molecular.Config{
		TotalSize:       256 * addr.KB,
		MoleculeSize:    8 * addr.KB,
		TilesPerCluster: 4,
		Seed:            7,
	}
	c := molecular.MustNew(cfg)
	for i := 0; i < 4096; i++ {
		c.Access(trace.Ref{Addr: uint64(i%1024) * 64, ASID: uint16(i % 3), Kind: trace.Read})
	}
	if vs := Check(CaptureCache(c)); len(vs) != 0 {
		t.Fatalf("live cache flagged: %v", vs)
	}
	// Retire a molecule mid-flight and keep going: still clean.
	if _, err := c.RetireMolecule(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4096; i++ {
		c.Access(trace.Ref{Addr: uint64(i%1024) * 64, ASID: uint16(i % 3), Kind: trace.Write})
	}
	if vs := Check(CaptureCache(c)); len(vs) != 0 {
		t.Fatalf("cache flagged after retirement: %v", vs)
	}
}

func TestCheckerCadence(t *testing.T) {
	calls := 0
	src := func() Snapshot { calls++; return healthy() }
	ck := NewChecker(src, 10)
	for i := 0; i < 35; i++ {
		if vs := ck.Tick(); vs != nil {
			t.Fatalf("clean source produced violations: %v", vs)
		}
	}
	if calls != 3 || ck.Runs() != 3 {
		t.Errorf("audits = %d (runs %d), want 3", calls, ck.Runs())
	}
	bad := healthy()
	bad.Molecules[0].Free = true
	ck2 := NewChecker(func() Snapshot { return bad }, 0)
	if vs := ck2.Tick(); vs != nil {
		t.Error("Tick fired with cadence 0")
	}
	if vs := ck2.Run(); len(vs) == 0 {
		t.Error("on-demand Run missed the corruption")
	}
	if !strings.Contains(ck2.Summary(), "molecule-accounting") {
		t.Errorf("summary %q missing rule breakdown", ck2.Summary())
	}
}
