package resize

import (
	"testing"

	"molcache/internal/addr"
	"molcache/internal/molecular"
	"molcache/internal/trace"
)

// newCache builds a 1MB molecular cache (4 tiles x 32 molecules) with a
// small initial allocation so growth is observable.
func newCache(t *testing.T) *molecular.Cache {
	t.Helper()
	return molecular.MustNew(molecular.Config{
		TotalSize:        1 * addr.MB,
		MoleculeSize:     8 * addr.KB,
		TilesPerCluster:  4,
		Clusters:         1,
		Policy:           molecular.RandyReplacement,
		InitialMolecules: 4,
		Seed:             7,
	})
}

func drive(c *molecular.Cache, ctrl *Controller, asid uint16, start, span uint64, n int) {
	a := start
	for i := 0; i < n; i++ {
		c.Access(trace.Ref{Addr: a, ASID: asid, Kind: trace.Read})
		ctrl.Tick()
		a += 64
		if a >= start+span {
			a = start
		}
	}
}

func TestConfigValidate(t *testing.T) {
	cache := newCache(t)
	bad := []Config{
		{Trigger: "bogus"},
		{DefaultGoal: 1.5},
		{DefaultGoal: -0.1},
		{Goals: map[uint16]float64{1: 0}},
		{Goals: map[uint16]float64{1: 1.2}},
		{MinPeriod: 100, MaxPeriod: 10},
	}
	for _, cfg := range bad {
		if _, err := New(cache, cfg); err == nil {
			t.Errorf("New(%+v) succeeded, want error", cfg)
		}
	}
}

func TestDefaults(t *testing.T) {
	ctrl := MustNew(newCache(t), Config{DefaultGoal: 0.1})
	if ctrl.Period() != 25000 {
		t.Errorf("default period = %d, want 25000", ctrl.Period())
	}
	if ctrl.Goal(42) != 0.1 {
		t.Errorf("Goal(42) = %v", ctrl.Goal(42))
	}
}

func TestGoalOverride(t *testing.T) {
	ctrl := MustNew(newCache(t), Config{
		DefaultGoal: 0.1,
		Goals:       map[uint16]float64{3: 0.25},
	})
	if ctrl.Goal(3) != 0.25 || ctrl.Goal(4) != 0.1 {
		t.Errorf("goals: %v, %v", ctrl.Goal(3), ctrl.Goal(4))
	}
}

func TestSetGoal(t *testing.T) {
	shared := map[uint16]float64{3: 0.25}
	ctrl := MustNew(newCache(t), Config{
		DefaultGoal: 0.1,
		Goals:       shared,
	})
	if err := ctrl.SetGoal(3, 0.4); err != nil {
		t.Fatalf("SetGoal: %v", err)
	}
	if ctrl.Goal(3) != 0.4 {
		t.Errorf("goal after SetGoal: %v, want 0.4", ctrl.Goal(3))
	}
	if shared[3] != 0.25 {
		t.Errorf("caller map mutated: %v", shared)
	}
	if got := ctrl.Config().Goals[3]; got != 0.4 {
		t.Errorf("Config().Goals[3] = %v, want 0.4 (checkpoint must see the update)", got)
	}
	if err := ctrl.SetGoal(3, 0); err != nil {
		t.Fatalf("SetGoal(0): %v", err)
	}
	if ctrl.Goal(3) != 0.1 {
		t.Errorf("goal after clearing override: %v, want DefaultGoal", ctrl.Goal(3))
	}
	for _, bad := range []float64{-0.1, 1, 1.5} {
		if err := ctrl.SetGoal(5, bad); err == nil {
			t.Errorf("SetGoal(%v): want error", bad)
		}
	}
}

// A thrashing workload (working set far beyond the partition) must
// trigger emergency chunk growth.
func TestEmergencyGrowthOnThrash(t *testing.T) {
	cache := newCache(t)
	ctrl := MustNew(cache, Config{Period: 2000, DefaultGoal: 0.1})
	// Sweep 4MB: hopeless for any partition, miss rate ~1. Emergency
	// growth must fire; the payoff audit (which matures over a 50K-
	// address horizon) must then find the growth futile and give the
	// molecules back.
	drive(cache, ctrl, 1, 0, 4*addr.MB, 150000)
	sawChunk, peak, gaveBack := false, 0, false
	for _, d := range ctrl.Decisions() {
		if d.Action == ActionGrowChunk {
			sawChunk = true
		}
		if d.SizeAfter > peak {
			peak = d.SizeAfter
		}
		if d.Action == ActionShrink && d.Delta <= -8 {
			gaveBack = true
		}
	}
	if !sawChunk {
		t.Error("no grow-chunk decision recorded")
	}
	if peak <= 4 {
		t.Errorf("partition never grew under thrash (peak %d)", peak)
	}
	if !gaveBack {
		t.Error("futile growth was never given back")
	}
	if vs := cache.CheckInvariants(); len(vs) != 0 {
		t.Fatal(vs)
	}
}

// A tiny working set that easily beats the goal must shrink the
// partition (conservatively, never below one molecule) once the
// cluster's free pool is under pressure.
func TestShrinkWhenUnderGoal(t *testing.T) {
	cache := newCache(t)
	// Exhaust most of the pool so the pressure gate enables shrinking.
	if _, err := cache.CreateRegion(99, molecular.RegionOptions{
		HomeCluster: 0, HomeTile: 1, InitialMolecules: 108,
	}); err != nil {
		t.Fatal(err)
	}
	ctrl := MustNew(cache, Config{Period: 2000, DefaultGoal: 0.2})
	// 16KB loop: after warmup, miss rate ~0.
	drive(cache, ctrl, 1, 0, 16*addr.KB, 30000)
	r := cache.Region(1)
	if r.MoleculeCount() >= 4 {
		t.Errorf("partition did not shrink: %d molecules", r.MoleculeCount())
	}
	if r.MoleculeCount() < 1 {
		t.Error("partition shrank below one molecule")
	}
	sawShrink := false
	for _, d := range ctrl.Decisions() {
		if d.Action == ActionShrink {
			sawShrink = true
		}
	}
	if !sawShrink {
		t.Error("no shrink decision recorded")
	}
}

// An application without a goal (Graph B's mcf) is never resized.
func TestUnmanagedAppUntouched(t *testing.T) {
	cache := newCache(t)
	ctrl := MustNew(cache, Config{
		Period: 2000,
		Goals:  map[uint16]float64{1: 0.1}, // only app 1 managed
	})
	drive(cache, ctrl, 2, 0, 4*addr.MB, 10000) // app 2 thrashes, unmanaged
	if got := cache.Region(2).MoleculeCount(); got != 4 {
		t.Errorf("unmanaged app resized to %d molecules", got)
	}
	for _, d := range ctrl.Decisions() {
		if d.ASID == 2 && d.Action != ActionNone {
			t.Errorf("unmanaged app got action %s", d.Action)
		}
	}
}

func TestAdaptivePeriodShrinksUnderPressure(t *testing.T) {
	cache := newCache(t)
	ctrl := MustNew(cache, Config{
		Period:      10000,
		Trigger:     AdaptiveGlobal,
		DefaultGoal: 0.05,
		MinPeriod:   500,
	})
	drive(cache, ctrl, 1, 0, 4*addr.MB, 15000) // thrash: miss ~1 > goal
	if ctrl.Period() >= 10000 {
		t.Errorf("period = %d, want shrunk below 10000", ctrl.Period())
	}
}

func TestAdaptivePeriodGrowsWhenHealthy(t *testing.T) {
	cache := newCache(t)
	ctrl := MustNew(cache, Config{
		Period:      2000,
		Trigger:     AdaptiveGlobal,
		DefaultGoal: 0.5, // easy goal
		MaxPeriod:   100000,
	})
	drive(cache, ctrl, 1, 0, 16*addr.KB, 20000) // tiny loop: miss ~0 < goal
	if ctrl.Period() <= 2000 {
		t.Errorf("period = %d, want grown above 2000", ctrl.Period())
	}
}

func TestConstantPeriodStaysPut(t *testing.T) {
	cache := newCache(t)
	ctrl := MustNew(cache, Config{
		Period:      2000,
		Trigger:     Constant,
		DefaultGoal: 0.1,
	})
	drive(cache, ctrl, 1, 0, 4*addr.MB, 10000)
	if ctrl.Period() != 2000 {
		t.Errorf("constant trigger changed period to %d", ctrl.Period())
	}
}

func TestPerAppTriggerIndependentPeriods(t *testing.T) {
	cache := newCache(t)
	ctrl := MustNew(cache, Config{
		Period:      2000,
		Trigger:     AdaptivePerApp,
		DefaultGoal: 0.1,
		MinPeriod:   200,
	})
	// App 1 healthy (tiny loop), app 2 thrashing; interleave.
	a1, a2 := uint64(0), uint64(1)<<36
	for i := 0; i < 30000; i++ {
		cache.Access(trace.Ref{Addr: a1, ASID: 1, Kind: trace.Read})
		ctrl.Tick()
		cache.Access(trace.Ref{Addr: a2, ASID: 2, Kind: trace.Read})
		ctrl.Tick()
		a1 += 64
		if a1 >= 16*addr.KB {
			a1 = 0
		}
		a2 += 64
		if a2 >= (uint64(1)<<36)+4*addr.MB {
			a2 = uint64(1) << 36
		}
	}
	s1, s2 := ctrl.apps[1], ctrl.apps[2]
	if s1 == nil || s2 == nil {
		t.Fatal("per-app state missing")
	}
	if s1.period <= s2.period {
		t.Errorf("healthy app period %d not longer than thrashing app period %d",
			s1.period, s2.period)
	}
}

func TestResizeCostAccounting(t *testing.T) {
	cache := newCache(t)
	ctrl := MustNew(cache, Config{Period: 1000, DefaultGoal: 0.1})
	drive(cache, ctrl, 1, 0, 1*addr.MB, 5000)
	if ctrl.CyclesSpent() == 0 {
		t.Error("no resize cycles accounted")
	}
	if ctrl.CyclesSpent()%1500 != 0 {
		t.Errorf("cycles %d not a multiple of the 1500/app daemon cost", ctrl.CyclesSpent())
	}
}

func TestEventsCarrySizes(t *testing.T) {
	cache := newCache(t)
	ctrl := MustNew(cache, Config{Period: 1000, DefaultGoal: 0.1})
	drive(cache, ctrl, 1, 0, 4*addr.MB, 5000)
	decs := ctrl.Decisions()
	if len(decs) == 0 {
		t.Fatal("no decisions")
	}
	for _, d := range decs {
		if d.SizeAfter < 1 {
			t.Errorf("decision with size %d", d.SizeAfter)
		}
		if d.ASID != 1 {
			t.Errorf("unexpected ASID %d", d.ASID)
		}
		if d.MissRate < 0 || d.MissRate > 1 {
			t.Errorf("bad miss rate %v", d.MissRate)
		}
	}
}

// Epoch counters must be consumed by the resize pass: after a pass, the
// partition's row-miss counters restart from zero.
func TestEpochResetAfterPass(t *testing.T) {
	cache := newCache(t)
	ctrl := MustNew(cache, Config{Period: 1000, DefaultGoal: 0.1})
	drive(cache, ctrl, 1, 0, 4*addr.MB, 1001)
	r := cache.Region(1)
	var total uint64
	for _, n := range r.RowMissCounts() {
		total += n
	}
	// Only the references after the resize point may have accumulated.
	if total > 200 {
		t.Errorf("row miss counters = %d, want reset at the resize point", total)
	}
}

// When the pool is dry and a Randy region is row-imbalanced, the
// controller must fall back to intra-region rebalancing.
func TestRebalanceWhenPoolDry(t *testing.T) {
	cache := molecular.MustNew(molecular.Config{
		TotalSize:        512 * addr.KB,
		TilesPerCluster:  4,
		Clusters:         1,
		Policy:           molecular.RandyReplacement,
		InitialMolecules: 16,
		Seed:             3,
	})
	// Four regions exhaust the 64-molecule cluster.
	for asid := uint16(2); asid <= 4; asid++ {
		if _, err := cache.CreateRegion(asid, molecular.RegionOptions{
			HomeCluster: 0, HomeTile: int(asid - 1),
		}); err != nil {
			t.Fatal(err)
		}
	}
	ctrl := MustNew(cache, Config{Period: 2000, DefaultGoal: 0.05})
	// App 1 hammers one molecule-sized slice of the address space so a
	// single replacement-view row takes all the pressure.
	a := uint64(0)
	for i := 0; i < 120000; i++ {
		cache.Access(trace.Ref{Addr: a % (16 * addr.KB), ASID: 1, Kind: trace.Read})
		ctrl.Tick()
		a += 64
	}
	if cache.FreeMolecules() != 0 {
		t.Fatalf("free pool not exhausted: %d", cache.FreeMolecules())
	}
	saw := false
	for _, d := range ctrl.Decisions() {
		if d.Action == ActionRebalance {
			saw = true
		}
	}
	if !saw {
		t.Error("no rebalance decision despite a dry pool and row pressure")
	}
	if vs := cache.CheckInvariants(); len(vs) != 0 {
		t.Fatal(vs)
	}
}
