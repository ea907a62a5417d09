package molecular

import (
	"reflect"
	"testing"

	"molcache/internal/rng"
	"molcache/internal/stats"
	"molcache/internal/trace"
)

// TestSnapshotRoundTripRegionTable checkpoints a cache serving one
// region at a dense ASID and one past the dense bound, then restores
// it. The region table is derived state, so RestoreCache must rebuild
// both halves of it: each region is reachable again, and the next
// accesses — which find their regions through the table — match an
// uninterrupted cache's without auto-admitting a second region.
func TestSnapshotRoundTripRegionTable(t *testing.T) {
	const dense, overflow uint16 = 7, stats.DenseASIDs + 44
	src := rng.New(2006)
	refs := make([]trace.Ref, 6000)
	for i := range refs {
		asid := dense
		if src.Intn(2) == 1 {
			asid = overflow
		}
		refs[i] = ref(asid, uint64(asid)<<32|uint64(src.Intn(4096))*64, trace.Kind(src.Intn(2)))
	}

	a := MustNew(smallConfig(RandyReplacement))
	cut := len(refs) / 2
	for _, r := range refs[:cut] {
		a.Access(r)
	}
	b, err := RestoreCache(a.Config(), a.CaptureState())
	if err != nil {
		t.Fatalf("RestoreCache: %v", err)
	}
	for _, asid := range []uint16{dense, overflow} {
		ra, rb := a.Region(asid), b.Region(asid)
		if rb == nil {
			t.Fatalf("ASID %d: region unreachable after restore", asid)
		}
		if rb.ASID() != asid || rb.MoleculeCount() != ra.MoleculeCount() {
			t.Fatalf("ASID %d: restored region is ASID %d with %d molecules, want %d",
				asid, rb.ASID(), rb.MoleculeCount(), ra.MoleculeCount())
		}
	}
	for i, r := range refs[cut:] {
		if ra, rb := a.Access(r), b.Access(r); ra != rb {
			t.Fatalf("access %d after restore (%v): uninterrupted %+v, restored %+v", cut+i, r, ra, rb)
		}
	}
	if n := len(b.Regions()); n != 2 {
		t.Errorf("restored cache holds %d regions after replay, want 2", n)
	}
	for _, asid := range []uint16{dense, overflow} {
		if la, lb := a.Ledger().App(asid), b.Ledger().App(asid); la != lb {
			t.Errorf("ASID %d ledger: uninterrupted %+v, restored %+v", asid, la, lb)
		}
	}
	if vs := b.CheckInvariants(); len(vs) != 0 {
		t.Error(vs)
	}
}

// TestSnapshotRoundTripLRUDirect checkpoints an LRU-Direct cache, whose
// victim choice reads every candidate line's touch timestamp, mid-run.
// The restore must rebuild each line word exactly — tag, touch, dirty
// and valid bits — and the restored cache must continue access by
// access like the uninterrupted one. A touch too wide for the line word
// is rejected, not truncated.
func TestSnapshotRoundTripLRUDirect(t *testing.T) {
	src := rng.New(1717)
	refs := make([]trace.Ref, 20000)
	for i := range refs {
		asid := uint16(1 + src.Intn(2))
		kind := trace.Read
		if src.Intn(10) < 3 {
			kind = trace.Write
		}
		refs[i] = ref(asid, uint64(asid)<<32|uint64(src.Intn(3000))*64, kind)
	}
	a := MustNew(smallConfig(LRUDirect))
	cut := len(refs) / 2
	for _, r := range refs[:cut] {
		a.Access(r)
	}
	st := a.CaptureState()
	b, err := RestoreCache(a.Config(), st)
	if err != nil {
		t.Fatalf("RestoreCache: %v", err)
	}
	dirty, touches := 0, map[uint64]bool{}
	for id, m := range a.molsByID {
		for slot, ln := range m.lines {
			if got := b.molsByID[id].lines[slot]; got != ln {
				t.Fatalf("molecule %d slot %d: restored line %+v, captured %+v", id, slot, got, ln)
			}
			if ln.dirty() {
				dirty++
			}
			if ln.valid() {
				touches[ln.touch()] = true
			}
		}
	}
	if dirty == 0 || len(touches) < 100 {
		t.Fatalf("%d dirty lines and %d distinct touches at the cut; the round trip is vacuous", dirty, len(touches))
	}
	for i, r := range refs[cut:] {
		if ra, rb := a.Access(r), b.Access(r); ra != rb {
			t.Fatalf("access %d after restore (%v): uninterrupted %+v, restored %+v", cut+i, r, ra, rb)
		}
	}
	if !reflect.DeepEqual(a.CaptureState(), b.CaptureState()) {
		t.Error("final states differ between the uninterrupted and the restored cache")
	}

	for i := range st.Molecules {
		if len(st.Molecules[i].Lines) > 0 {
			st.Molecules[i].Lines[0].Touch = maxTouch + 1
			break
		}
	}
	if _, err := RestoreCache(a.Config(), st); err == nil {
		t.Error("RestoreCache accepted a touch wider than the line word")
	}
}
