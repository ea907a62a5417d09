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
// The restore must rebuild each line exactly — its word (tag, dirty and
// valid bits) and its touch — and the restored cache must continue
// access by access like the uninterrupted one. A tag too wide for the
// line size is rejected, not truncated.
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
	for i, ln := range a.lines {
		if got := b.lines[i]; got != ln {
			t.Fatalf("slab line %d: restored %#x, captured %#x", i, got, ln)
		}
		if !ln.valid() {
			continue // an invalid line's touch is never read
		}
		if got := b.touch[i]; got != a.touch[i] {
			t.Fatalf("slab line %d: restored touch %d, captured %d", i, got, a.touch[i])
		}
		if ln.dirty() {
			dirty++
		}
		touches[a.touch[i]] = true
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
			st.Molecules[i].Lines[0].Tag |= 1 << 58 // same slot, past 64-byte lines' largest block
			break
		}
	}
	if _, err := RestoreCache(a.Config(), st); err == nil {
		t.Error("RestoreCache accepted a tag wider than the line size allows")
	}
}

// TestSnapshotRestoresRandyTouches restores a Randy checkpoint whose
// lines carry touch values, as builds that stamped every line with
// LRU-Direct's timestamp wrote them. Randy never reads a touch, so the
// restore drops them: the restored cache continues access by access
// like the uninterrupted one, and its own checkpoints carry none.
func TestSnapshotRestoresRandyTouches(t *testing.T) {
	src := rng.New(2021)
	refs := make([]trace.Ref, 20000)
	for i := range refs {
		asid := uint16(1 + src.Intn(2))
		refs[i] = ref(asid, uint64(asid)<<32|uint64(src.Intn(3000))*64, trace.Kind(src.Intn(2)))
	}
	a := MustNew(smallConfig(RandyReplacement))
	cut := len(refs) / 2
	for _, r := range refs[:cut] {
		a.Access(r)
	}
	st := a.CaptureState()
	stamped := 0
	for i := range st.Molecules {
		for j := range st.Molecules[i].Lines {
			ln := &st.Molecules[i].Lines[j]
			if ln.Touch != 0 {
				t.Fatalf("molecule %d slot %d: a Randy cache wrote touch %d", i, ln.Slot, ln.Touch)
			}
			ln.Touch = uint64(cut - stamped) // a distinct clock reading per line
			stamped++
		}
	}
	if stamped < 1000 {
		t.Fatalf("only %d lines resident at the cut; the restore is vacuous", stamped)
	}
	b, err := RestoreCache(a.Config(), st)
	if err != nil {
		t.Fatalf("RestoreCache: %v", err)
	}
	for i, r := range refs[cut:] {
		if ra, rb := a.Access(r), b.Access(r); ra != rb {
			t.Fatalf("access %d after restore (%v): uninterrupted %+v, restored %+v", cut+i, r, ra, rb)
		}
	}
	if !reflect.DeepEqual(a.CaptureState(), b.CaptureState()) {
		t.Error("final states differ between the uninterrupted and the restored cache")
	}
}
