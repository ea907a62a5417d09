package molecular

import (
	"testing"

	"molcache/internal/addr"
	"molcache/internal/trace"
)

func TestRebalanceMovesColdToHot(t *testing.T) {
	c := MustNew(smallConfig(RandyReplacement))
	r, err := c.CreateRegion(1, RegionOptions{HomeCluster: 0, HomeTile: 0, InitialMolecules: 12})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(r.Rows()); got != 4 {
		t.Fatalf("rows = %d, want 4", got)
	}
	// Manufacture decisive imbalance: all replacement pressure on row 0.
	r.rowMiss[0] = 1000
	before := r.Rows()
	if !c.Rebalance(r) {
		t.Fatal("Rebalance refused a decisive imbalance")
	}
	after := r.Rows()
	if after[0] != before[0]+1 {
		t.Errorf("hot row width %d -> %d, want +1", before[0], after[0])
	}
	total := 0
	for _, w := range after {
		total += w
	}
	if total != 12 {
		t.Errorf("total molecules changed: %v", after)
	}
	if vs := c.CheckInvariants(); len(vs) != 0 {
		t.Fatal(vs)
	}
}

func TestRebalanceRefusesMarginalImbalance(t *testing.T) {
	c := MustNew(smallConfig(RandyReplacement))
	r, _ := c.CreateRegion(1, RegionOptions{HomeCluster: 0, HomeTile: 0, InitialMolecules: 8})
	// Mild, even pressure: no move is worth a molecule flush.
	for i := range r.rowMiss {
		r.rowMiss[i] = 3
	}
	if c.Rebalance(r) {
		t.Error("Rebalance moved a molecule on marginal imbalance")
	}
}

func TestRebalanceNoOpForRandom(t *testing.T) {
	c := MustNew(smallConfig(RandomReplacement))
	r, _ := c.CreateRegion(1, RegionOptions{HomeCluster: 0, HomeTile: 0, InitialMolecules: 8})
	r.rowMiss[0] = 1000
	if c.Rebalance(r) {
		t.Error("Rebalance acted on a single-row (Random) region")
	}
}

func TestRebalanceKeepsDataReachable(t *testing.T) {
	c := MustNew(smallConfig(RandyReplacement))
	r, _ := c.CreateRegion(1, RegionOptions{HomeCluster: 0, HomeTile: 0, InitialMolecules: 12})
	// Fill some lines, then rebalance; lines in untouched molecules must
	// still hit (the moved molecule is flushed, the rest keep serving).
	var addrs []uint64
	for a := uint64(0); a < 32*addr.KB; a += 64 {
		c.Access(trace.Ref{Addr: a, ASID: 1, Kind: trace.Read})
		addrs = append(addrs, a)
	}
	r.rowMiss[0] += 1000
	if !c.Rebalance(r) {
		t.Fatal("Rebalance refused")
	}
	hits := 0
	for _, a := range addrs {
		if c.Access(trace.Ref{Addr: a, ASID: 1, Kind: trace.Read}).Hit {
			hits++
		}
	}
	// One molecule (128 lines max) was flushed; most lines must survive.
	if hits < len(addrs)/2 {
		t.Errorf("only %d/%d lines survived a single-molecule rebalance", hits, len(addrs))
	}
	if vs := c.CheckInvariants(); len(vs) != 0 {
		t.Fatal(vs)
	}
}

func TestTileReleaseForeignPanics(t *testing.T) {
	c := MustNew(smallConfig(RandyReplacement))
	t0 := c.Clusters()[0].Tiles()[0]
	t1 := c.Clusters()[0].Tiles()[1]
	m := t1.takeFree()
	m.owned = false
	defer func() {
		if recover() == nil {
			t.Fatal("release to a foreign tile did not panic")
		}
	}()
	t0.release(m)
}

func TestFreeInCluster(t *testing.T) {
	c := MustNew(smallConfig(RandyReplacement))
	r, _ := c.CreateRegion(1, RegionOptions{HomeCluster: 0, HomeTile: 0, InitialMolecules: 8})
	if got := c.FreeInCluster(r); got != 24 {
		t.Errorf("FreeInCluster = %d, want 24", got)
	}
}
