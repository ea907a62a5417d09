package molcache_test

import (
	"testing"

	"molcache"
)

func TestFacadeQuickPath(t *testing.T) {
	sim, err := molcache.NewSimulator(
		molcache.MolecularConfig{TotalSize: 1 << 20, Seed: 1},
		molcache.ResizeConfig{DefaultGoal: 0.10},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Two applications with disjoint hot sets.
	for i := 0; i < 200000; i++ {
		a := uint64(i%2048) * 64
		sim.Access(molcache.Ref{Addr: a, ASID: 1, Kind: molcache.Read})
		sim.Access(molcache.Ref{Addr: 1<<36 + a, ASID: 2, Kind: molcache.Write})
	}
	led := sim.Cache.Ledger()
	for _, asid := range []uint16{1, 2} {
		if mr := led.App(asid).MissRate(); mr > 0.05 {
			t.Errorf("app %d miss rate = %.3f, want hot-loop hit behaviour", asid, mr)
		}
	}
	if vs := sim.Cache.CheckInvariants(); len(vs) != 0 {
		t.Error(vs)
	}
	if sim.Controller.DecisionCount() == 0 {
		t.Error("controller never ran")
	}
}

func TestFacadeTraditional(t *testing.T) {
	c, err := molcache.NewTraditional(molcache.TraditionalConfig{Size: 1 << 20, Ways: 4, LineSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if c.Access(molcache.Ref{Addr: 64}).Hit {
		t.Error("cold hit")
	}
	if !c.Access(molcache.Ref{Addr: 64}).Hit {
		t.Error("warm miss")
	}
}

func TestFacadeSystem(t *testing.T) {
	l2, err := molcache.NewTraditional(molcache.TraditionalConfig{
		Size: 1 << 20, Ways: 4, LineSize: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := molcache.NewSystem(l2, molcache.SystemConfig{CaptureL1Misses: true})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := molcache.NewWorkload("ammp", 1<<36, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddCore(1, gen); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(100000); err != nil {
		t.Fatal(err)
	}
	if n := len(sys.Captured()); n == 0 || uint64(n) != l2.Ledger().App(1).Accesses() {
		t.Errorf("captured %d L1 misses, the L2 saw %d accesses", n, l2.Ledger().App(1).Accesses())
	}

	// A core outside its ASID's window fails the run.
	stray, err := molcache.NewSystem(l2, molcache.SystemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if gen, err = molcache.NewWorkload("ammp", 0, 42); err != nil {
		t.Fatal(err)
	}
	if err := stray.AddCore(1, gen); err != nil {
		t.Fatal(err)
	}
	if err := stray.Run(1000); err == nil {
		t.Error("a core outside its ASID's window ran")
	}

	refs, err := molcache.CaptureMix([]string{"ammp", "parser"}, 100000, 42)
	if err != nil {
		t.Fatal(err)
	}
	perASID := map[uint16]int{}
	for _, r := range refs {
		perASID[r.ASID]++
	}
	if len(perASID) != 2 || perASID[1] == 0 || perASID[2] == 0 {
		t.Errorf("CaptureMix L1 misses per ASID = %v, want both apps as ASIDs 1 and 2", perASID)
	}
}

func TestFacadeWorkloads(t *testing.T) {
	names := molcache.Workloads()
	if len(names) != 15 {
		t.Errorf("Workloads() = %d entries", len(names))
	}
	if _, err := molcache.NewWorkload("nosuch", 0, 0); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestFacadePower(t *testing.T) {
	e, err := molcache.EstimatePower(molcache.PowerGeometry{
		SizeBytes: 8 << 20, Assoc: 4, LineBytes: 64, Ports: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.AccessEnergy <= 0 || e.CycleTime <= 0 {
		t.Errorf("degenerate estimate %+v", e)
	}
	me, err := molcache.EstimateMolecularPower(molcache.MolecularPowerGeometry{
		TotalBytes: 8 << 20, MoleculeBytes: 8 << 10, LineBytes: 64,
		TileMolecules: 64, PortsPerCluster: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if me.AccessEnergy(8) >= me.WorstCaseEnergy() {
		t.Error("selective enablement missing from facade path")
	}
}

func TestFacadeMetrics(t *testing.T) {
	var l molcache.Ledger
	l.Record(1, false)
	l.Record(1, false)
	l.Record(1, true)
	l.Record(1, true) // miss rate 0.5
	got := molcache.AverageDeviation(&l, molcache.UniformGoals(0.25, 1))
	if got != 0.25 {
		t.Errorf("AverageDeviation = %v, want 0.25", got)
	}
}

func TestFacadeRelatedWorkSchemes(t *testing.T) {
	m, err := molcache.NewModifiedLRU(1<<20, 8, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.SetQuota(1, 64)
	m.Access(molcache.Ref{Addr: 0, ASID: 1})
	if !m.Access(molcache.Ref{Addr: 0, ASID: 1}).Hit {
		t.Error("ModifiedLRU warm miss")
	}
	cc, err := molcache.NewColumnCache(1<<20, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := cc.AssignEqualColumns(1, 2); err != nil {
		t.Fatal(err)
	}
	hb, err := molcache.NewHomeBank(4, 256<<10, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := hb.SetHome(1, 2); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeProfiler(t *testing.T) {
	p := molcache.NewProfiler(64)
	for sweep := 0; sweep < 4; sweep++ {
		for i := uint64(0); i < 64; i++ {
			p.Record(1, i*64)
		}
	}
	c, err := p.Curve(1)
	if err != nil {
		t.Fatal(err)
	}
	curves := map[uint16]*molcache.MissRatioCurve{1: c}
	alloc, err := molcache.OraclePartition(curves, map[uint16]float64{1: 0.5}, 256, 16)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Lines[1] < 64 {
		t.Errorf("oracle allocated %d lines, want >= the 64-line working set", alloc.Lines[1])
	}
}

func TestFacadeFaultsAndInvariants(t *testing.T) {
	sim, err := molcache.NewSimulator(
		molcache.MolecularConfig{TotalSize: 1 << 20, Seed: 1},
		molcache.ResizeConfig{DefaultGoal: 0.10},
	)
	if err != nil {
		t.Fatal(err)
	}
	err = sim.InjectFaults(molcache.FaultCampaign{
		Seed: 7,
		MoleculeFailures: []molcache.MoleculeFailure{
			{At: 1000, Molecule: 0},
			{At: 2000, Molecule: 1},
		},
		RandomMoleculeFailures: &molcache.FaultRandomSpec{Count: 3, Start: 3000, End: 8000},
		NoCDelays: []molcache.NoCDelay{
			{At: 4000, Duration: 500, ExtraCycles: 5, DropAttempts: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		a := uint64(i%4096) * 64
		sim.Access(molcache.Ref{Addr: a, ASID: 1, Kind: molcache.Read})
		sim.Access(molcache.Ref{Addr: 1<<36 + a, ASID: 2, Kind: molcache.Write})
	}
	if got := sim.FaultStats().MoleculeFailures; got != 5 {
		t.Errorf("delivered %d molecule failures, want 5", got)
	}
	if got := sim.Degradation().RetiredMolecules; got != 5 {
		t.Errorf("retired %d molecules, want 5", got)
	}
	if vs := sim.CheckInvariants(); len(vs) != 0 {
		t.Errorf("invariant violations after faulted run: %v", vs)
	}
	// Detach: the zero campaign removes injection.
	if err := sim.InjectFaults(molcache.FaultCampaign{}); err != nil {
		t.Fatal(err)
	}
	if sim.Cache.Faults() != nil {
		t.Error("zero campaign did not detach the injector")
	}
}
