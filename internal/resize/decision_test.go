package resize

import (
	"encoding/json"
	"testing"

	"molcache/internal/addr"
	"molcache/internal/telemetry"
)

// Every Algorithm 1 evaluation must leave an auditable decision, in
// order, with a non-empty reason and the inputs (miss, goal, free pool,
// size) the pass saw.
func TestDecisionLogAlignsWithEvents(t *testing.T) {
	cache := newCache(t)
	ctrl := MustNew(cache, Config{Period: 2000, DefaultGoal: 0.1})
	drive(cache, ctrl, 1, 0, 4*addr.MB, 60000)

	decs := ctrl.Decisions()
	if len(decs) == 0 {
		t.Fatal("no decisions recorded")
	}
	if ctrl.DecisionCount() != uint64(len(decs)) {
		t.Fatalf("DecisionCount %d, retained %d with no overflow", ctrl.DecisionCount(), len(decs))
	}
	for i, d := range decs {
		if d.Seq != uint64(i+1) {
			t.Fatalf("decision %d has seq %d", i, d.Seq)
		}
		if d.ASID != 1 || (i > 0 && d.At <= decs[i-1].At) {
			t.Fatalf("decision %d out of order or for the wrong partition: %+v", i, d)
		}
		if d.Reason == "" {
			t.Fatalf("decision %d has no reason: %+v", i, d)
		}
		if d.SizeBefore+d.Delta != d.SizeAfter {
			t.Fatalf("decision %d sizes inconsistent: %+v", i, d)
		}
		if d.Goal != 0.1 || d.Deviation != d.MissRate-d.Goal {
			t.Fatalf("decision %d goal/deviation wrong: %+v", i, d)
		}
	}
	// The thrash drives emergency growth; its reason must say so.
	sawChunkReason := false
	for _, d := range decs {
		if d.Action == ActionGrowChunk {
			sawChunkReason = d.Reason != "" && d.Delta >= 0
		}
	}
	if !sawChunkReason {
		t.Fatal("no grow-chunk decision with a reason")
	}
	// Decisions must be JSON-serializable for GET /decisions.
	if _, err := json.Marshal(decs); err != nil {
		t.Fatal(err)
	}
}

func TestDecisionRingBounded(t *testing.T) {
	cache := newCache(t)
	// One pass every 10 accesses: 5,000 decisions overflow the ring.
	ctrl := MustNew(cache, Config{Period: 10, MinPeriod: 10, MaxPeriod: 10, DefaultGoal: 0.1})
	drive(cache, ctrl, 1, 0, 4*addr.MB, 50000)

	decs := ctrl.Decisions()
	if len(decs) != DefaultDecisionLog {
		t.Fatalf("ring holds %d, want %d", len(decs), DefaultDecisionLog)
	}
	if ctrl.DecisionCount() <= DefaultDecisionLog {
		t.Fatalf("DecisionCount %d, want > ring size", ctrl.DecisionCount())
	}
	// Oldest-first and contiguous: the ring keeps the newest tail.
	for i := 1; i < len(decs); i++ {
		if decs[i].Seq != decs[i-1].Seq+1 {
			t.Fatalf("ring not contiguous at %d: %d then %d", i, decs[i-1].Seq, decs[i].Seq)
		}
	}
	if decs[len(decs)-1].Seq != ctrl.DecisionCount() {
		t.Fatalf("newest decision seq %d != total %d", decs[len(decs)-1].Seq, ctrl.DecisionCount())
	}
}

// The unmanaged and empty-window early returns must still be audited.
func TestDecisionReasonsForInaction(t *testing.T) {
	cache := newCache(t)
	ctrl := MustNew(cache, Config{Period: 2000, DefaultGoal: 0})
	drive(cache, ctrl, 1, 0, 64*addr.KB, 5000)
	decs := ctrl.Decisions()
	if len(decs) == 0 {
		t.Fatal("no decisions for unmanaged partition")
	}
	for _, d := range decs {
		if d.Action != ActionNone || d.Reason == "" {
			t.Fatalf("unmanaged decision wrong: %+v", d)
		}
	}
}

// Solo resize_tick spans must wrap every fired pass.
func TestResizeTickSpans(t *testing.T) {
	cache := newCache(t)
	ctrl := MustNew(cache, Config{Period: 2000, MinPeriod: 2000, DefaultGoal: 0.1})
	st := telemetry.NewSpanTracer(1<<30, 0) // never samples accesses
	ctrl.AttachSpans(st)
	drive(cache, ctrl, 1, 0, 4*addr.MB, 10000)
	spans := st.Spans()
	if len(spans) == 0 {
		t.Fatal("no resize_tick spans recorded")
	}
	for _, sp := range spans {
		if sp.Name != "resize_tick" || sp.Depth != 0 {
			t.Fatalf("unexpected span %+v", sp)
		}
	}
	if st.Drops() != 0 {
		t.Fatalf("span drops: %d", st.Drops())
	}
}
