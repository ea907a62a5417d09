package molecular

import (
	"testing"

	"molcache/internal/faults"
	"molcache/internal/telemetry"
	"molcache/internal/trace"
)

// warm fills a region with traffic across n distinct lines.
func warm(c *Cache, asid uint16, n int, kind trace.Kind) {
	for i := 0; i < n; i++ {
		c.Access(ref(asid, uint64(i)*64, kind))
	}
}

func TestRetireOwnedMolecule(t *testing.T) {
	c := MustNew(smallConfig(RandyReplacement))
	r, err := c.CreateRegion(7, RegionOptions{HomeCluster: 0, HomeTile: 0, InitialMolecules: 4})
	if err != nil {
		t.Fatal(err)
	}
	warm(c, 7, 512, trace.Write)
	before := r.MoleculeCount()

	// Pick an owned molecule with resident lines.
	var victim *Molecule
	for _, m := range r.molecules() {
		if m.validLines() > 0 {
			victim = m
			break
		}
	}
	if victim == nil {
		t.Fatal("no owned molecule holds lines after warmup")
	}
	lines := victim.validLines()

	rep, err := c.RetireMolecule(victim.ID())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.WasOwned || rep.ASID != 7 {
		t.Errorf("report = %+v, want owned by ASID 7", rep)
	}
	if rep.LinesLost != lines {
		t.Errorf("LinesLost = %d, want %d", rep.LinesLost, lines)
	}
	if rep.Writebacks == 0 {
		t.Errorf("write-warmed molecule retired with zero writebacks")
	}
	if rep.RegionSize != before-1 || r.MoleculeCount() != before-1 {
		t.Errorf("region size = %d, want %d", r.MoleculeCount(), before-1)
	}
	if !victim.Failed() || victim.Owned() || victim.validLines() != 0 {
		t.Errorf("victim state after retire: failed=%v owned=%v lines=%d",
			victim.Failed(), victim.Owned(), victim.validLines())
	}
	for _, f := range victim.tile.free {
		if f == victim {
			t.Error("retired molecule re-entered the free pool")
		}
	}
	if vs := c.CheckInvariants(); len(vs) != 0 {
		t.Errorf("invariants after retire: %v", vs)
	}
	if got := c.Degradation().RetiredMolecules; got != 1 {
		t.Errorf("RetiredMolecules = %d, want 1", got)
	}

	// The cache keeps serving the region's traffic.
	warm(c, 7, 512, trace.Read)
	if vs := c.CheckInvariants(); len(vs) != 0 {
		t.Errorf("invariants after post-retire traffic: %v", vs)
	}
}

func TestRetireFreeMoleculeAndErrors(t *testing.T) {
	c := MustNew(smallConfig(RandyReplacement))
	free := c.clusters[0].tiles[0].free
	m := free[len(free)-1]
	if _, err := c.RetireMolecule(m.ID()); err != nil {
		t.Fatal(err)
	}
	for _, f := range m.tile.free {
		if f == m {
			t.Error("retired molecule still on free list")
		}
	}
	if _, err := c.RetireMolecule(m.ID()); err == nil {
		t.Error("double retire succeeded, want error")
	}
	if _, err := c.RetireMolecule(-1); err == nil {
		t.Error("retire of molecule -1 succeeded, want error")
	}
	if _, err := c.RetireMolecule(c.TotalMolecules()); err == nil {
		t.Error("retire past the last molecule succeeded, want error")
	}
	if vs := c.CheckInvariants(); len(vs) != 0 {
		t.Errorf("invariants: %v", vs)
	}
}

func TestRetireWholeRegionBypassesAndRegrows(t *testing.T) {
	cfg := smallConfig(RandyReplacement)
	cfg.InitialMolecules = 2
	c := MustNew(cfg)
	r, err := c.CreateRegion(3, RegionOptions{HomeCluster: 0, HomeTile: 0, InitialMolecules: 2})
	if err != nil {
		t.Fatal(err)
	}
	warm(c, 3, 64, trace.Read)
	for _, m := range r.molecules() {
		if _, err := c.RetireMolecule(m.ID()); err != nil {
			t.Fatal(err)
		}
	}
	if r.MoleculeCount() != 0 {
		t.Fatalf("region size = %d after full retirement", r.MoleculeCount())
	}
	// The next miss re-grows from healthy spares instead of dying.
	res := c.Access(ref(3, 0, trace.Read))
	if res.Hit {
		t.Error("hit against an empty region")
	}
	if r.MoleculeCount() == 0 {
		t.Error("region did not re-grow from spares")
	}
	if vs := c.CheckInvariants(); len(vs) != 0 {
		t.Errorf("invariants: %v", vs)
	}
}

func TestRetireEverythingServesUncached(t *testing.T) {
	cfg := smallConfig(RandyReplacement)
	cfg.InitialMolecules = 2
	c := MustNew(cfg)
	if _, err := c.CreateRegion(3, RegionOptions{HomeCluster: 0, HomeTile: 0, InitialMolecules: 2}); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < c.TotalMolecules(); id++ {
		if _, err := c.RetireMolecule(id); err != nil {
			t.Fatal(err)
		}
	}
	// Every access now bypasses; none may panic or fill.
	for i := 0; i < 32; i++ {
		if res := c.Access(ref(3, uint64(i)*64, trace.Write)); res.Hit {
			t.Fatal("hit with all molecules retired")
		}
	}
	if c.Degradation().UncachedBypasses == 0 {
		t.Error("no bypasses counted with all molecules retired")
	}
	if vs := c.CheckInvariants(); len(vs) != 0 {
		t.Errorf("invariants: %v", vs)
	}
}

func TestCorruptLine(t *testing.T) {
	c := MustNew(smallConfig(RandyReplacement))
	r, err := c.CreateRegion(5, RegionOptions{HomeCluster: 0, HomeTile: 0, InitialMolecules: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.Access(ref(5, 0, trace.Write))
	var m *Molecule
	for _, x := range r.molecules() {
		if x.contains(0) {
			m = x
			break
		}
	}
	if m == nil {
		t.Fatal("block 0 not resident after write")
	}
	wasValid, wasDirty, err := c.CorruptLine(m.ID(), m.index(0))
	if err != nil || !wasValid || !wasDirty {
		t.Fatalf("CorruptLine = (%v,%v,%v), want dirty valid line lost", wasValid, wasDirty, err)
	}
	if m.contains(0) {
		t.Error("corrupted line still resident")
	}
	// The line refetches on next touch: miss, then hit.
	if res := c.Access(ref(5, 0, trace.Read)); res.Hit {
		t.Error("hit on corrupted line")
	}
	if res := c.Access(ref(5, 0, trace.Read)); !res.Hit {
		t.Error("miss after refetch")
	}
	d := c.Degradation()
	if d.LineCorruptions != 1 || d.DirtyCorruptions != 1 {
		t.Errorf("corruption counters = %+v", d)
	}
	if _, _, err := c.CorruptLine(m.ID(), int(c.linesPerMol)); err == nil {
		t.Error("out-of-range line accepted")
	}
	if _, _, err := c.CorruptLine(c.TotalMolecules(), 0); err == nil {
		t.Error("out-of-range molecule accepted")
	}
}

func TestCampaignDrivenFaults(t *testing.T) {
	c := MustNew(smallConfig(RandyReplacement))
	if _, err := c.CreateRegion(1, RegionOptions{HomeCluster: 0, HomeTile: 0, InitialMolecules: 4}); err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewTracer(256)
	c.AttachTelemetry(tr, nil)
	inj, err := faults.NewInjector(faults.Campaign{
		Seed: 42,
		MoleculeFailures: []faults.MoleculeFailure{
			{At: 10, Molecule: 0},
			{At: 10, Molecule: 1},
			{At: 20, Molecule: 2},
		},
		LineCorruptions: []faults.LineCorruption{{At: 15, Molecule: 3, Line: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AttachFaults(inj); err != nil {
		t.Fatal(err)
	}
	warm(c, 1, 30, trace.Read)
	if got := c.Degradation().RetiredMolecules; got != 3 {
		t.Errorf("RetiredMolecules = %d, want 3", got)
	}
	for _, id := range []int{0, 1, 2} {
		if !c.Molecule(id).Failed() {
			t.Errorf("molecule %d not retired", id)
		}
	}
	if inj.PendingFailures() != 0 {
		t.Errorf("pending failures = %d, want 0", inj.PendingFailures())
	}
	if vs := c.CheckInvariants(); len(vs) != 0 {
		t.Errorf("invariants: %v", vs)
	}
	// The tracer saw the retirement events at the scheduled access counts.
	var retires []telemetry.Event
	for _, e := range tr.Events() {
		if e.Kind == telemetry.KindMoleculeRetire {
			retires = append(retires, e)
		}
	}
	if len(retires) != 3 || retires[0].At != 10 || retires[2].At != 20 {
		t.Errorf("retire events = %+v", retires)
	}
}

func TestNoCDelayRetriesAndAbandon(t *testing.T) {
	cfg := smallConfig(RandyReplacement)
	c := MustNew(cfg)
	r, err := c.CreateRegion(9, RegionOptions{HomeCluster: 0, HomeTile: 0, InitialMolecules: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Force capacity onto a sibling tile so stage 2 traversals happen.
	if _, err := c.Grow(r, 8); err != nil {
		t.Fatal(err)
	}
	if len(r.TileCounts()) < 2 {
		t.Fatal("region did not spill to a sibling tile")
	}

	// Recoverable delay: retries paid, lookups still complete.
	inj, err := faults.NewInjector(faults.Campaign{
		NoCDelays: []faults.NoCDelay{
			{At: 1, Duration: 50, ExtraCycles: 7, DropAttempts: 2},
			{At: 200, Duration: 50, ExtraCycles: 3, DropAttempts: 99},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AttachFaults(inj); err != nil {
		t.Fatal(err)
	}
	// Each traversal inside a window pays ExtraCycles·a on attempt a, for
	// attempts = min(DropAttempts+1, maxNoCAttempts): a fixed cost per
	// traversal. The first 150 accesses cover only the first window, the
	// rest only the second, so each window's traversals follow from its
	// retry and abandon deltas.
	penalty := func(extra uint64, attempts int) uint64 {
		return extra * uint64(attempts*(attempts+1)/2)
	}
	for i := 0; i < 150; i++ {
		c.Access(ref(9, uint64(i)*64, trace.Read))
	}
	d1 := c.Degradation()
	if d1.NoCRetries == 0 || d1.NoCRetries%2 != 0 || d1.NoCAbandonedLookups != 0 {
		t.Fatalf("first window: %d retries, %d abandoned; want a positive multiple of 2 and 0",
			d1.NoCRetries, d1.NoCAbandonedLookups)
	}
	want := d1.NoCRetries / 2 * penalty(7, 3)
	if got := c.RemoteCycles(); got != want {
		t.Errorf("first window: RemoteCycles = %d, want %d", got, want)
	}
	for i := 150; i < 300; i++ {
		c.Access(ref(9, uint64(i)*64, trace.Read))
	}
	d := c.Degradation()
	abandoned := d.NoCAbandonedLookups
	if retries := d.NoCRetries - d1.NoCRetries; retries != abandoned*(maxNoCAttempts-1) {
		t.Errorf("second window: %d retries for %d abandoned traversals", retries, abandoned)
	}
	want += abandoned * penalty(3, maxNoCAttempts)
	if got := c.RemoteCycles(); got != want {
		t.Errorf("both windows: RemoteCycles = %d, want %d", got, want)
	}
	if d.NoCRetries == 0 {
		t.Error("no NoC retries under a delay window")
	}
	if d.NoCAbandonedLookups == 0 {
		t.Error("no abandoned lookups under a drop-forever window")
	}
	if d.UncachedBypasses == 0 {
		t.Error("no uncached bypasses under a drop-forever window")
	}
	// Bypassing misses under unreachable tiles must never duplicate a
	// line: the structural invariants hold throughout and after.
	if vs := c.CheckInvariants(); len(vs) != 0 {
		t.Errorf("invariants: %v", vs)
	}
}

// TestFaultEventsSayWhenAndWhose holds the fault events to the access
// they happened at and the region they hit: every back-invalidation a
// retirement emits carries the access count at retirement and the
// owning region's ASID, and every noc-fault event the ASID of the
// region whose Ulmo sweep met the delay window.
func TestFaultEventsSayWhenAndWhose(t *testing.T) {
	c := MustNew(smallConfig(RandyReplacement))
	r, err := c.CreateRegion(9, RegionOptions{HomeCluster: 0, HomeTile: 0, InitialMolecules: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Grow(r, 8); err != nil {
		t.Fatal(err)
	}
	if len(r.TileCounts()) < 2 {
		t.Fatal("region did not spill to a sibling tile")
	}
	sink := telemetry.NewMemorySink()
	tr := telemetry.NewTracer(0)
	tr.SetSink(sink)
	c.AttachTelemetry(tr, nil)
	warm(c, 9, 512, trace.Write)

	var victim *Molecule
	for _, m := range r.molecules() {
		if m.validLines() > 0 {
			victim = m
			break
		}
	}
	if victim == nil {
		t.Fatal("no owned molecule holds lines after warmup")
	}
	retiredAt, lines := c.Addresses(), victim.validLines()
	if _, err := c.RetireMolecule(victim.ID()); err != nil {
		t.Fatal(err)
	}

	inj, err := faults.NewInjector(faults.Campaign{
		NoCDelays: []faults.NoCDelay{{At: retiredAt + 1, Duration: 50, ExtraCycles: 7, DropAttempts: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AttachFaults(inj); err != nil {
		t.Fatal(err)
	}
	// Lines the warmup never touched miss on the home tile, so each
	// access sweeps the sibling tiles inside the window.
	for i := 0; i < 50; i++ {
		c.Access(ref(9, uint64(1024+i)*64, trace.Read))
	}

	var invalidates, nocFaults int
	for _, e := range sink.Events() {
		switch e.Kind {
		case telemetry.KindInvalidate:
			invalidates++
			if e.At != retiredAt || e.ASID != 9 {
				t.Errorf("invalidate event %+v, want at %d and asid 9", e, retiredAt)
			}
		case telemetry.KindNoCFault:
			nocFaults++
			if e.ASID != 9 {
				t.Errorf("noc-fault event %+v, want asid 9", e)
			}
		}
	}
	if invalidates != lines {
		t.Errorf("%d invalidate events for %d resident lines", invalidates, lines)
	}
	if nocFaults == 0 {
		t.Error("no noc-fault events inside the delay window")
	}
}

func TestFaultFreePathUnchanged(t *testing.T) {
	run := func(attach bool) (uint64, uint64) {
		c := MustNew(smallConfig(RandyReplacement))
		if attach {
			inj, err := faults.NewInjector(faults.Campaign{})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.AttachFaults(inj); err != nil {
				t.Fatal(err)
			}
		}
		warm(c, 2, 4096, trace.Read)
		warm(c, 2, 4096, trace.Write)
		hm := c.Ledger().Total
		return hm.Hits, hm.Misses
	}
	h0, m0 := run(false)
	h1, m1 := run(true)
	if h0 != h1 || m0 != m1 {
		t.Errorf("empty campaign perturbed results: (%d,%d) vs (%d,%d)", h0, m0, h1, m1)
	}
}

func TestDetachFaultsRestoresNormalPath(t *testing.T) {
	c := MustNew(smallConfig(RandyReplacement))
	inj, err := faults.NewInjector(faults.Campaign{
		MoleculeFailures: []faults.MoleculeFailure{{At: 1000, Molecule: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AttachFaults(inj); err != nil {
		t.Fatal(err)
	}
	if err := c.AttachFaults(nil); err != nil {
		t.Fatal(err)
	}
	warm(c, 1, 2000, trace.Read)
	if got := c.Degradation().RetiredMolecules; got != 0 {
		t.Errorf("detached injector still fired: %d retirements", got)
	}
}

// TestBadGeometryCampaign checks that a campaign whose explicit targets
// exceed the cache geometry attaches cleanly (targets dropped, counted).
func TestBadGeometryCampaign(t *testing.T) {
	c := MustNew(smallConfig(RandyReplacement))
	inj, err := faults.NewInjector(faults.Campaign{
		MoleculeFailures: []faults.MoleculeFailure{{At: 1, Molecule: 10_000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AttachFaults(inj); err != nil {
		t.Fatal(err)
	}
	warm(c, 1, 10, trace.Read)
	if got := c.Degradation().RetiredMolecules; got != 0 {
		t.Errorf("out-of-range target retired %d molecules", got)
	}
	if inj.Stats().SkippedOutOfRange != 1 {
		t.Errorf("SkippedOutOfRange = %d, want 1", inj.Stats().SkippedOutOfRange)
	}
}
