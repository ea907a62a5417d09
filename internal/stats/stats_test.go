package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHitMissBasics(t *testing.T) {
	var h HitMiss
	if h.MissRate() != 0 || h.HitRate() != 0 {
		t.Error("empty HitMiss should report zero rates")
	}
	h.Record(true)
	h.Record(true)
	h.Record(false)
	if h.Accesses() != 3 {
		t.Errorf("Accesses = %d, want 3", h.Accesses())
	}
	if got := h.MissRate(); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("MissRate = %v, want 1/3", got)
	}
	if got := h.HitRate(); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("HitRate = %v, want 2/3", got)
	}
}

func TestLedgerPerApp(t *testing.T) {
	var l Ledger
	l.Record(1, true)
	l.Record(1, false)
	l.Record(2, false)
	if got := l.App(1); got.Hits != 1 || got.Misses != 1 {
		t.Errorf("App(1) = %+v", got)
	}
	if got := l.App(2); got.Misses != 1 {
		t.Errorf("App(2) = %+v", got)
	}
	if got := l.App(3); got.Accesses() != 0 {
		t.Errorf("App(3) = %+v, want zero", got)
	}
	if l.Total.Accesses() != 3 {
		t.Errorf("Total = %+v, want 3 accesses", l.Total)
	}
	ids := l.ASIDs()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Errorf("ASIDs = %v, want [1 2]", ids)
	}
}

// Property: over ASIDs drawn from the whole uint16 range (half of them
// folded below 512, so the dense table and the overflow both fill),
// the ledger total equals the sum over apps, every recorded ASID is
// listed, and ASIDs() is strictly increasing.
func TestLedgerConsistencyProperty(t *testing.T) {
	f := func(events []uint16) bool {
		var l Ledger
		want := map[uint16]bool{}
		for i, e := range events {
			if i%2 == 0 {
				e %= 512
			}
			want[e] = true
			l.Record(e, i%3 == 0)
		}
		ids := l.ASIDs()
		if len(ids) != len(want) {
			return false
		}
		var sum HitMiss
		for i, id := range ids {
			if !want[id] || (i > 0 && ids[i-1] >= id) {
				return false
			}
			sum.Hits += l.App(id).Hits
			sum.Misses += l.App(id).Misses
		}
		return sum == l.Total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// AppRef cells never move: growing the dense table, adding overflow
// ASIDs and SetApp all leave earlier pointers live, and Record lands in
// the cell a hot path cached.
func TestAppRefStable(t *testing.T) {
	var l Ledger
	one := l.AppRef(1)
	shared := l.AppRef(65535)
	set := l.SetApp(3, HitMiss{Hits: 7, Misses: 2})
	if l.AppRef(3) != set {
		t.Fatal("SetApp and AppRef hand out different cells for a new ASID")
	}
	for asid := uint16(4); asid < DenseASIDs+10; asid++ {
		l.Record(asid, asid%2 == 0)
	}
	if l.AppRef(1) != one || l.AppRef(65535) != shared || l.AppRef(3) != set {
		t.Fatal("cells moved when the dense table grew")
	}
	if got := l.SetApp(1, HitMiss{Hits: 5}); got != one {
		t.Fatal("SetApp replaced an existing dense cell")
	}
	if got := l.SetApp(65535, HitMiss{Misses: 4}); got != shared {
		t.Fatal("SetApp replaced an existing overflow cell")
	}
	one.Record(true)
	shared.Record(false)
	if got := l.App(1); got != (HitMiss{Hits: 6}) {
		t.Errorf("App(1) = %+v, want hits=6", got)
	}
	if got := l.App(65535); got != (HitMiss{Misses: 5}) {
		t.Errorf("App(65535) = %+v, want misses=5", got)
	}
	if got := l.App(3); got != (HitMiss{Hits: 7, Misses: 2}) {
		t.Errorf("App(3) = %+v, want hits=7 misses=2", got)
	}
}

func TestWindowRoll(t *testing.T) {
	var count HitMiss
	w := NewWindow(&count)
	count.Record(true)
	count.Record(false)
	got := w.Roll()
	if got.Hits != 1 || got.Misses != 1 {
		t.Errorf("Roll = %+v", got)
	}
	if w.Snapshot().Accesses() != 0 {
		t.Error("window not cleared after Roll")
	}
	count.Record(false)
	if w.Snapshot().Misses != 1 {
		t.Error("window did not accumulate after Roll")
	}
}

// A window over a count already running starts empty; Restore sets
// the mark so the window holds the given counts, and refuses counts
// the running count does not contain.
func TestWindowRestore(t *testing.T) {
	count := HitMiss{Hits: 5, Misses: 3}
	w := NewWindow(&count)
	if got := w.Snapshot(); got != (HitMiss{}) {
		t.Fatalf("new window = %+v, want empty", got)
	}
	if err := w.Restore(HitMiss{Hits: 2, Misses: 3}); err != nil {
		t.Fatal(err)
	}
	count.Record(true)
	if got := w.Roll(); got != (HitMiss{Hits: 3, Misses: 3}) {
		t.Errorf("Roll after Restore = %+v, want hits=3 misses=3", got)
	}
	for _, hm := range []HitMiss{{Hits: 7}, {Misses: 4}} {
		if err := w.Restore(hm); err == nil {
			t.Errorf("Restore(%+v) over %+v succeeded", hm, count)
		}
	}
	if got := w.Snapshot(); got != (HitMiss{}) {
		t.Errorf("a refused Restore moved the mark: window = %+v", got)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(4)
	for _, v := range []uint64{0, 1, 1, 2, 9} {
		h.Observe(v)
	}
	if h.Buckets[0] != 1 || h.Buckets[1] != 2 || h.Buckets[2] != 1 || h.Buckets[3] != 1 {
		t.Errorf("Buckets = %v", h.Buckets)
	}
	if h.Count != 5 || h.Sum != 13 {
		t.Errorf("Count/Sum = %d/%d", h.Count, h.Sum)
	}
	if got := h.Mean(); math.Abs(got-13.0/5) > 1e-12 {
		t.Errorf("Mean = %v", got)
	}
}

// BenchmarkLedgerRecord measures one Record: a single application, the
// twelve of the paper's mixed workload in turn, and ASID 65535, which
// lives in the overflow map.
func BenchmarkLedgerRecord(b *testing.B) {
	for _, bc := range []struct {
		name  string
		asids []uint16
	}{
		{"1-asid", []uint16{1}},
		{"12-asids", []uint16{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}},
		{"overflow-asid", []uint16{65535}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var l Ledger
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.Record(bc.asids[i%len(bc.asids)], i&3 != 0)
			}
		})
	}
}
