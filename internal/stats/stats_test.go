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

func TestHitMissAdd(t *testing.T) {
	a := HitMiss{Hits: 3, Misses: 1}
	b := HitMiss{Hits: 2, Misses: 5}
	a.Add(b)
	if a.Hits != 5 || a.Misses != 6 {
		t.Errorf("Add = %+v, want hits=5 misses=6", a)
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
	l.Reset()
	if l.Total.Accesses() != 0 || len(l.ASIDs()) != 0 {
		t.Error("Reset did not clear the ledger")
	}
}

// Property: ledger total always equals the sum over apps.
func TestLedgerConsistencyProperty(t *testing.T) {
	f := func(events []uint16) bool {
		var l Ledger
		for i, e := range events {
			l.Record(e%4, i%3 == 0)
		}
		var sum HitMiss
		for _, id := range l.ASIDs() {
			sum.Add(l.App(id))
		}
		return sum == l.Total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWindowRoll(t *testing.T) {
	var w Window
	w.Record(true)
	w.Record(false)
	got := w.Roll()
	if got.Hits != 1 || got.Misses != 1 {
		t.Errorf("Roll = %+v", got)
	}
	if w.Snapshot().Accesses() != 0 {
		t.Error("window not cleared after Roll")
	}
	w.Record(false)
	if w.Snapshot().Misses != 1 {
		t.Error("window did not accumulate after Roll")
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
	if h.Count != 5 || h.Sum != 13 || h.Max != 9 {
		t.Errorf("Count/Sum/Max = %d/%d/%d", h.Count, h.Sum, h.Max)
	}
	if got := h.Mean(); math.Abs(got-13.0/5) > 1e-12 {
		t.Errorf("Mean = %v", got)
	}
}
