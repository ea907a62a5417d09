package invariant

// Tests of rule 6 (index-consistency): the fast-path block index a
// RegionState carries must be exactly the residency relation of the
// region's molecules. Hand-built snapshots pin each failure shape; the
// live-capture test confirms a real cache's index audits clean and that
// capture actually populates the Index field (a nil Index would skip
// the rule silently and the oracle would be vacuous).

import (
	"testing"

	"molcache/internal/addr"
	"molcache/internal/molecular"
	"molcache/internal/trace"
)

// indexed returns the healthy snapshot with both regions' indexes
// populated to mirror their molecules' blocks exactly.
func indexed() Snapshot {
	s := healthy()
	s.Regions[0].Index = map[uint64]int{0x10: 0, 0x20: 0, 0x31: 1}
	s.Regions[1].Index = map[uint64]int{0x10: 2}
	return s
}

func TestIndexedHealthySnapshotIsClean(t *testing.T) {
	if vs := Check(indexed()); len(vs) != 0 {
		t.Errorf("clean indexed snapshot flagged: %v", vs)
	}
}

func TestNilIndexSkipsRule(t *testing.T) {
	// healthy() carries no Index at all; rule 6 must stay silent.
	for _, v := range Check(healthy()) {
		if v.Rule == "index-consistency" {
			t.Errorf("nil index flagged: %v", v)
		}
	}
}

func TestIndexMissingResidentBlock(t *testing.T) {
	s := indexed()
	delete(s.Regions[0].Index, 0x20)
	wantRule(t, Check(s), "index-consistency")
}

func TestIndexNamesWrongHolder(t *testing.T) {
	s := indexed()
	s.Regions[0].Index[0x20] = 1
	wantRule(t, Check(s), "index-consistency")
}

func TestIndexHoldsStaleEntry(t *testing.T) {
	// An entry for a block no molecule holds: the per-block pass cannot
	// see it, but the cardinality comparison must.
	s := indexed()
	s.Regions[1].Index[0x99] = 2
	wantRule(t, Check(s), "index-consistency")
}

func TestCaptureCachePopulatesIndex(t *testing.T) {
	c := molecular.MustNew(molecular.Config{
		TotalSize:       256 * addr.KB,
		MoleculeSize:    8 * addr.KB,
		TilesPerCluster: 4,
		Seed:            7,
	})
	for i := 0; i < 4096; i++ {
		c.Access(trace.Ref{Addr: uint64(i%1024) * 64, ASID: uint16(i % 3), Kind: trace.Read})
	}
	s := CaptureCache(c)
	for _, r := range s.Regions {
		if r.Index == nil {
			t.Fatalf("region %d captured without an index; rule 6 would be skipped", r.ASID)
		}
		if len(r.Index) == 0 {
			t.Fatalf("region %d captured an empty index after 4096 accesses", r.ASID)
		}
	}
	if vs := Check(s); len(vs) != 0 {
		t.Fatalf("live cache index flagged: %v", vs)
	}
	// Corrupt one captured entry and the rule must fire.
	for b := range s.Regions[0].Index {
		s.Regions[0].Index[b] = -1
		break
	}
	wantRule(t, Check(s), "index-consistency")
}
