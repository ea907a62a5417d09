// End-to-end integration tests: the full pipeline the paper's
// methodology describes — workload models into the CMP substrate,
// L1-miss trace capture, a trace serialization round trip, replay into
// the molecular cache under the resize controller, and QoS metrics —
// exercised through the public facade plus the trace format.
package molcache_test

import (
	"bytes"
	"testing"

	"molcache"
	"molcache/internal/trace"
)

// TestPipelineEndToEnd runs the miniature version of the full experiment
// pipeline and checks cross-module consistency at every hand-off.
func TestPipelineEndToEnd(t *testing.T) {
	// Stage 1: run two applications on the CMP over a small shared L2,
	// capturing the L1-miss stream.
	l2, err := molcache.NewTraditional(molcache.TraditionalConfig{
		Size: 256 << 10, Ways: 4, LineSize: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := molcache.NewSystem(l2, molcache.SystemConfig{CaptureL1Misses: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"ammp", "parser"} {
		asid := uint16(i + 1)
		gen, err := molcache.NewWorkload(name, uint64(asid)<<36, 99+uint64(asid))
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.AddCore(asid, gen); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Run(800_000); err != nil {
		t.Fatal(err)
	}
	captured := sys.Captured()
	if len(captured) == 0 {
		t.Fatal("no L1 misses captured")
	}

	// Stage 2: the trace must survive serialization bit for bit.
	var fixed bytes.Buffer
	fw := trace.NewWriter(&fixed)
	for _, r := range captured {
		if err := fw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	fr, err := trace.NewReader(&fixed)
	if err != nil {
		t.Fatal(err)
	}
	fromFixed, err := fr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(fromFixed) != len(captured) {
		t.Fatalf("lengths diverged: %d decoded, %d live", len(fromFixed), len(captured))
	}
	for i := range captured {
		if fromFixed[i] != captured[i] {
			t.Fatalf("record %d diverged through the trace format", i)
		}
	}

	// Stage 3: replay into a molecular cache under the resize
	// controller. The replay through the simulator facade must agree
	// with a manual replay into an identically configured cache.
	mcfg := molcache.MolecularConfig{TotalSize: 1 << 20, Policy: molcache.Randy, Seed: 5}
	rcfg := molcache.ResizeConfig{DefaultGoal: 0.15}
	sim, err := molcache.NewSimulator(mcfg, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	ledger := sim.Run(fromFixed)

	manual, err := molcache.NewSimulator(mcfg, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range captured {
		manual.Access(r)
	}
	for _, asid := range []uint16{1, 2} {
		if ledger.App(asid) != manual.Cache.Ledger().App(asid) {
			t.Errorf("asid %d: replay paths disagree: %+v vs %+v",
				asid, ledger.App(asid), manual.Cache.Ledger().App(asid))
		}
	}

	// Stage 4: structural invariants and metrics consistency.
	if vs := sim.Cache.CheckInvariants(); len(vs) != 0 {
		t.Fatal(vs)
	}
	goals := molcache.UniformGoals(0.15, 1, 2)
	dev := molcache.AverageDeviation(ledger, goals)
	if dev < 0 || dev > 1 {
		t.Errorf("deviation out of range: %v", dev)
	}
	// ammp (small hot set) must be meeting the goal by the end of the
	// replay; its partition must be non-degenerate.
	if mr := ledger.App(1).MissRate(); mr > 0.5 {
		t.Errorf("ammp replay miss rate %v, want it to settle", mr)
	}
	if sim.Cache.Region(1).MoleculeCount() < 1 {
		t.Error("ammp partition vanished")
	}
}

// TestDeterminismAcrossWholePipeline re-runs the pipeline and demands
// bit-identical outcomes — the property every experiment in
// EXPERIMENTS.md relies on.
func TestDeterminismAcrossWholePipeline(t *testing.T) {
	run := func() (uint64, uint64, int) {
		l2, err := molcache.NewTraditional(molcache.TraditionalConfig{
			Size: 256 << 10, Ways: 4, LineSize: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		sys, err := molcache.NewSystem(l2, molcache.SystemConfig{CaptureL1Misses: true})
		if err != nil {
			t.Fatal(err)
		}
		gen, err := molcache.NewWorkload("twolf", 1<<36, 1234)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.AddCore(1, gen); err != nil {
			t.Fatal(err)
		}
		if err := sys.Run(400_000); err != nil {
			t.Fatal(err)
		}
		sim, err := molcache.NewSimulator(
			molcache.MolecularConfig{TotalSize: 512 << 10, Seed: 42},
			molcache.ResizeConfig{DefaultGoal: 0.2},
		)
		if err != nil {
			t.Fatal(err)
		}
		led := sim.Run(sys.Captured())
		return led.App(1).Hits, led.App(1).Misses, sim.Cache.Region(1).MoleculeCount()
	}
	h1, m1, n1 := run()
	h2, m2, n2 := run()
	if h1 != h2 || m1 != m2 || n1 != n2 {
		t.Errorf("pipeline not deterministic: (%d,%d,%d) vs (%d,%d,%d)",
			h1, m1, n1, h2, m2, n2)
	}
}
