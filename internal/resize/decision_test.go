package resize

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"molcache/internal/addr"
	"molcache/internal/molecular"
	"molcache/internal/trace"
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

// TestDecisionReasonText pins the text of every reason form: a pass
// records a code and its operands, and Decisions renders them into
// exactly the sentences the log has always carried (molsim
// -explain-resize and GET /decisions print them verbatim).
func TestDecisionReasonText(t *testing.T) {
	base := Decision{
		MissRate: 0.61234, Goal: 0.25, SizeBefore: 12, FreeInCluster: 3, FreeGate: 16, Floor: 9,
	}
	cases := []struct {
		code       reasonCode
		a, b       int64
		f          float64
		delta      int
		missRate   float64 // overrides base's when set
		freeInClus int     // overrides base's when set
		want       string
	}{
		{code: reasonUnmanaged, want: "no miss-rate goal set: partition unmanaged"},
		{code: reasonNoAccesses, want: "no accesses in window: nothing to learn"},
		{code: reasonFrozen, a: 49,
			want: "miss 0.612 > 0.5 but emergency growth frozen (49 passes left) after a failed futility audit"},
		{code: reasonAuditPending, a: 32, b: 12345,
			want: "futility audit pending: 32 emergency molecules granted, judging after 50000 addresses (12345 elapsed)"},
		{code: reasonAuditPending, a: 32, b: -1,
			want: "futility audit pending: 32 emergency molecules granted, judging after 50000 addresses (18446744073709551615 elapsed)"},
		{code: reasonAuditFailed, f: 0.6, delta: -32,
			want: "futility audit failed: miss 0.612 vs 0.600 at mark; reclaimed 32 molecules and froze emergency growth for 50 passes"},
		{code: reasonAuditPassed, f: 0.9,
			want: "futility audit passed: miss 0.612 improved from 0.900 at mark; emergency growth may continue"},
		{code: reasonChunkRebalance,
			want: "miss 0.612 > 0.5 but cluster free pool exhausted (free 3): rebalanced rows with owned molecules"},
		{code: reasonChunk, a: 8, delta: 5,
			want: "miss 0.612 > 0.5 and over goal 0.250: emergency grow by chunk (asked 8, got 5)"},
		{code: reasonTaxShrink, delta: -2, missRate: 0.1,
			want: "miss 0.100 under goal 0.250 with cluster free pool low (free 3 <= gate 16): withdrew sqrt-model 2 molecules"},
		{code: reasonFloorHolds, missRate: 0.1,
			want: "miss 0.100 under goal 0.250 but shrink-regret floor 9 holds the partition at 12"},
		{code: reasonMinimal, missRate: 0.1,
			want: "miss 0.100 under goal 0.250 but partition already minimal (12 molecules)"},
		{code: reasonLinearRebalance, missRate: 0.3,
			want: "miss 0.300 over goal 0.250 but cluster free pool exhausted (free 3): rebalanced rows with owned molecules"},
		{code: reasonLinear, a: 15, b: 3, delta: 2, missRate: 0.3,
			want: "miss 0.300 over goal 0.250: linear growth toward target 15 (asked 3, got 2)"},
		{code: reasonLinearMet, a: 12, missRate: 0.3,
			want: "miss 0.300 over goal 0.250 but linear target 12 already met"},
		{code: reasonAmple, missRate: 0.1, freeInClus: 40,
			want: "miss 0.100 under goal 0.250 and cluster free pool ample (free 40 > gate 16): no shrink tax"},
		{code: reasonLeaveAlone, missRate: 0.25,
			want: "miss 0.250 meets goal 0.250: leave alone"},
	}
	forms := map[reasonCode]bool{}
	for _, tc := range cases {
		d := base
		if tc.missRate != 0 {
			d.MissRate = tc.missRate
		}
		if tc.freeInClus != 0 {
			d.FreeInCluster = tc.freeInClus
		}
		d.Delta = tc.delta
		d.why(tc.code, tc.a, tc.b, tc.f)
		if got := d.reasonText(); got != tc.want {
			t.Errorf("code %d: reason\n%q, want\n%q", tc.code, got, tc.want)
		}
		d.render()
		if d.Reason != tc.want || d.code != reasonRendered || d.argA != 0 || d.argB != 0 || d.argF != 0 {
			t.Errorf("code %d: render left %+v", tc.code, d)
		}
		d.render() // rendering twice keeps the text
		if d.Reason != tc.want {
			t.Errorf("code %d: a second render changed the text to %q", tc.code, d.Reason)
		}
		forms[tc.code] = true
	}
	if len(forms) != 16 {
		t.Errorf("table covers %d reason forms, want all 16", len(forms))
	}
}

// TestResizePassZeroAllocs pins that Algorithm 1 is off the allocator
// in steady state: once the decision ring is full, a pass over two
// healthy partitions that grows and shrinks nothing allocates nothing.
// Its reasons are rendered only when the log is read.
func TestResizePassZeroAllocs(t *testing.T) {
	cache := newCache(t)
	const period = 64
	ctrl := MustNew(cache, Config{
		Trigger: AdaptiveGlobal, Period: period, MinPeriod: period, MaxPeriod: period,
		Goals: map[uint16]float64{1: 0.5, 2: 0.5},
	})
	// Both tenants cycle through 16 lines each, resident from the first
	// pass on: every later window misses nothing, far under the goal,
	// with the cluster's pool ample.
	var hot []trace.Ref
	for i := uint64(0); i < 16; i++ {
		hot = append(hot,
			trace.Ref{Addr: i * 64, ASID: 1, Kind: trace.Read},
			trace.Ref{Addr: 1<<30 | i*64, ASID: 2, Kind: trace.Read})
	}
	i := 0
	pass := func() {
		for k := 0; k < period; k++ {
			cache.Access(hot[i%len(hot)])
			i++
			ctrl.Tick()
		}
	}
	for ctrl.DecisionCount() < DefaultDecisionLog+2 {
		pass()
	}
	sizes := [2]int{cache.Region(1).MoleculeCount(), cache.Region(2).MoleculeCount()}
	before := ctrl.DecisionCount()
	const runs = 50
	if allocs := testing.AllocsPerRun(runs, pass); allocs != 0 {
		t.Errorf("%v allocs per resize pass, want 0", allocs)
	}
	if got := ctrl.DecisionCount() - before; got != 2*(runs+1) {
		t.Fatalf("%d decisions over %d passes of two partitions", got, runs+1)
	}
	if now := [2]int{cache.Region(1).MoleculeCount(), cache.Region(2).MoleculeCount()}; now != sizes {
		t.Fatalf("partition sizes moved %v -> %v; the pass must leave them alone", sizes, now)
	}
	decs := ctrl.Decisions()
	for _, d := range decs[len(decs)-2*(runs+1):] {
		want := fmt.Sprintf("miss %.3f under goal %.3f and cluster free pool ample (free %d > gate %d): no shrink tax",
			d.MissRate, d.Goal, d.FreeInCluster, d.FreeGate)
		if d.Action != ActionNone || d.Delta != 0 || d.Reason != want {
			t.Fatalf("steady-state decision %+v, want no action with reason %q", d, want)
		}
	}
}

// TestDecisionReasonsSurviveCheckpoint: a checkpoint captures the ring
// with every reason rendered, the JSON round trip keeps the text, and a
// restored controller continues with a log equal entry for entry to the
// uninterrupted one.
func TestDecisionReasonsSurviveCheckpoint(t *testing.T) {
	cfg := Config{Period: 2000, DefaultGoal: 0.1}
	cache := newCache(t)
	ctrl := MustNew(cache, cfg)
	drive(cache, ctrl, 1, 0, 4*addr.MB, 30000)
	drive(cache, ctrl, 2, 1<<30, 32*addr.KB, 30000)

	st := ctrl.CaptureState()
	if len(st.Decisions) == 0 {
		t.Fatal("no decisions captured")
	}
	for i, d := range st.Decisions {
		if d.Reason == "" || d.code != reasonRendered {
			t.Fatalf("captured decision %d not rendered: %+v", i, d)
		}
	}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back ControllerState
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	restoredCache, err := molecular.RestoreCache(cache.Config(), cache.CaptureState())
	if err != nil {
		t.Fatal(err)
	}
	restored := MustNew(restoredCache, cfg)
	if err := restored.RestoreState(back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.Decisions(), ctrl.Decisions()) {
		t.Fatal("restored decision log differs from the captured one")
	}
	drive(cache, ctrl, 1, 0, 4*addr.MB, 20000)
	drive(restoredCache, restored, 1, 0, 4*addr.MB, 20000)
	got, want := restored.Decisions(), ctrl.Decisions()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("decision logs diverged after the restore")
	}
	if want[len(want)-1].Seq <= back.DecisionSeq {
		t.Fatal("no decision recorded after the restore; the continuation is vacuous")
	}
}
