package resize

import (
	"testing"

	"molcache/internal/telemetry"
)

// TestTracedResizeDecisionOrdering checks that the tracer's resize events
// mirror the decision log exactly — same count, same order, same (At,
// ASID, Action, Delta, SizeAfter) — and that the per-action counters in
// the registry tally the same decisions.
func TestTracedResizeDecisionOrdering(t *testing.T) {
	cache := newCache(t)
	ctrl := MustNew(cache, Config{
		Period:      2000,
		Trigger:     Constant,
		DefaultGoal: 0.10,
	})
	tr := telemetry.NewTracer(0)
	sink := telemetry.NewMemorySink()
	tr.SetSink(sink)
	reg := telemetry.NewRegistry()
	ctrl.AttachTelemetry(tr, reg)

	// Two phases: a small loop, then a working set far beyond the
	// initial 4 molecules, forcing a mixture of grow decisions.
	drive(cache, ctrl, 1, 0, 64*1024, 30_000)
	drive(cache, ctrl, 1, 0, 600*1024, 60_000)

	var traced []telemetry.Event
	for _, ev := range sink.Events() {
		if ev.Kind == telemetry.KindResize {
			traced = append(traced, ev)
		}
	}
	logged := ctrl.Decisions()
	if len(logged) == 0 {
		t.Fatal("controller made no decisions; the workload is miscalibrated")
	}
	if len(traced) != len(logged) {
		t.Fatalf("traced %d resize events, logged %d decisions", len(traced), len(logged))
	}
	actions := map[Action]uint64{}
	for i, d := range logged {
		got := traced[i]
		if got.At != d.At || got.ASID != d.ASID || got.Detail != string(d.Action) ||
			got.Value != int64(d.Delta) || got.Aux != int64(d.SizeAfter) {
			t.Errorf("decision %d: traced %+v != logged %+v", i, got, d)
		}
		actions[d.Action]++
	}
	// Sequence numbers must be strictly increasing (emission order).
	for i := 1; i < len(traced); i++ {
		if traced[i].Seq <= traced[i-1].Seq {
			t.Errorf("event %d: seq %d not after %d", i, traced[i].Seq, traced[i-1].Seq)
		}
	}
	snap := reg.Snapshot()
	for act, n := range actions {
		name := `molcache_resize_actions_total{action="` + string(act) + `"}`
		if snap.Counters[name] != n {
			t.Errorf("counter %s = %d, want %d", name, snap.Counters[name], n)
		}
	}
}

// TestDetachedControllerEmitsNothing checks the default (nil) telemetry
// path still resizes and leaves no events behind.
func TestDetachedControllerEmitsNothing(t *testing.T) {
	cache := newCache(t)
	ctrl := MustNew(cache, Config{Period: 2000, Trigger: Constant, DefaultGoal: 0.10})
	drive(cache, ctrl, 1, 0, 600*1024, 30_000)
	if ctrl.DecisionCount() == 0 {
		t.Fatal("no decisions made")
	}
	// Attach then detach: further decisions must not panic or emit.
	tr := telemetry.NewTracer(0)
	ctrl.AttachTelemetry(tr, telemetry.NewRegistry())
	ctrl.AttachTelemetry(nil, nil)
	before := tr.Emitted()
	drive(cache, ctrl, 1, 0, 600*1024, 10_000)
	if tr.Emitted() != before {
		t.Errorf("detached controller emitted %d events", tr.Emitted()-before)
	}
}
