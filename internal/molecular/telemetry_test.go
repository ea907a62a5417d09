package molecular

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"molcache/internal/addr"
	"molcache/internal/faults"
	"molcache/internal/rng"
	"molcache/internal/telemetry"
	"molcache/internal/trace"
)

// TestRegistryViewsReadTheCache runs a Randy cache through a fault
// campaign — NoC delay windows (retries, abandoned lookups and the
// bypasses they force), retirements and line corruptions — with grows,
// shrinks and a rebalance on either side of a registry attached after
// 10,000 accesses. Every metric is a view over the cache's own counts,
// so each must report the lifetime total the test tallies from the
// accesses' results and the resize calls' returns, and each region's
// service-time series must equal a histogram that observed every one
// of its accesses at its modelled latency, NoC penalty included.
func TestRegistryViewsReadTheCache(t *testing.T) {
	c := MustNew(smallConfig(RandyReplacement))
	spill, err := c.CreateRegion(1, RegionOptions{HomeCluster: 0, HomeTile: 0, InitialMolecules: 8})
	if err != nil {
		t.Fatal(err)
	}
	var remoteHits, writebacks, linesFetched, grown, shrunk, rebalanced uint64
	// Capacity on sibling tiles makes the Ulmo sweeps the NoC windows hit.
	got, err := c.Grow(spill, 8)
	if err != nil {
		t.Fatal(err)
	}
	grown += uint64(got)
	if len(spill.TileCounts()) < 2 {
		t.Fatal("region did not spill to a sibling tile")
	}
	inj, err := faults.NewInjector(faults.Campaign{
		Seed:                  7,
		MoleculeFailures:      []faults.MoleculeFailure{{At: 5_000, Molecule: 3}, {At: 15_000, Molecule: 9}},
		RandomLineCorruptions: &faults.RandomSpec{Count: 40, Start: 1_000, End: 30_000},
		NoCDelays: []faults.NoCDelay{
			{At: 2_000, Duration: 3_000, ExtraCycles: 9, DropAttempts: 2},
			{At: 12_000, Duration: 2_000, ExtraCycles: 5, DropAttempts: 99},
			{At: 20_000, Duration: 3_000, ExtraCycles: 12, DropAttempts: 99},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AttachFaults(inj); err != nil {
		t.Fatal(err)
	}

	// observed holds the service-time series as histograms that saw
	// every access; RemoteCycles' growth across an access is the NoC
	// penalty it paid.
	observed := telemetry.NewRegistry()
	access := func(r trace.Ref) {
		before := c.RemoteCycles()
		res := c.Access(r)
		if res.RemoteTileHit {
			remoteHits++
		}
		writebacks += uint64(res.Writebacks)
		linesFetched += uint64(res.LinesFetched)
		svc := serviceCycles(res.Hit, c.RemoteCycles()-before)
		observed.Histogram(`molcache_access_service_cycles{asid="`+strconv.Itoa(int(r.ASID))+`"}`, nil).
			Observe(float64(svc))
	}
	src := rng.New(11)
	run := func(n int) {
		for i := 0; i < n; i++ {
			asid := uint16(1 + src.Intn(3)) // ASIDs 2 and 3 are auto-admitted
			k := trace.Read
			if src.Intn(4) == 0 {
				k = trace.Write
			}
			access(ref(asid, uint64(asid)<<36|uint64(src.Intn(6_000))*64, k))
		}
	}
	// rebalance streams misses into one row of spill at a time until a
	// rebalance moves a molecule toward it.
	next := uint64(0)
	rebalance := func() {
		t.Helper()
		for row := range spill.rows {
			for n := 0; n < 200; next++ {
				if a := uint64(1)<<36 | next*64; spill.rowFor(a) == row {
					access(ref(1, a, trace.Read))
					n++
				}
			}
			if c.Rebalance(spill) {
				rebalanced++
				return
			}
		}
		t.Fatal("no row imbalance made Rebalance move a molecule")
	}
	shrink := func(asid uint16) {
		n, wb := c.Shrink(c.Region(asid), 2)
		shrunk += uint64(n)
		writebacks += uint64(wb)
	}

	const before, after = 10_000, 20_000
	rebalance()
	run(before / 2)
	shrink(2)
	run(before / 2)
	reg := telemetry.NewRegistry()
	c.AttachTelemetry(nil, reg)
	run(after / 2)
	shrink(3)
	got, err = c.Grow(c.Region(2), 2)
	if err != nil {
		t.Fatal(err)
	}
	grown += uint64(got)
	run(after / 2)

	s := reg.Snapshot()
	total, probes, deg := c.Ledger().Total, c.ProbeHistogram(), c.Degradation()
	if total.Accesses() < before+after {
		t.Fatalf("ledger counts %d accesses, want at least %d", total.Accesses(), before+after)
	}
	if deg.NoCRetries == 0 || deg.NoCAbandonedLookups == 0 || deg.UncachedBypasses == 0 ||
		deg.RetiredMolecules == 0 || deg.LineCorruptions == 0 {
		t.Fatalf("campaign left a fault path unexercised: %+v", deg)
	}
	if remoteHits == 0 || writebacks == 0 || shrunk == 0 || c.RemoteCycles() == 0 {
		t.Fatalf("run left a count unexercised: %d remote hits, %d writebacks, %d shrunk, %d NoC cycles",
			remoteHits, writebacks, shrunk, c.RemoteCycles())
	}
	for name, want := range map[string]uint64{
		"molcache_molecular_hits_total":              total.Hits,
		"molcache_molecular_misses_total":            total.Misses,
		"molcache_molecular_tag_probes_total":        probes.Sum,
		"molcache_molecular_remote_tile_hits_total":  remoteHits,
		"molcache_molecular_writebacks_total":        writebacks,
		"molcache_molecular_lines_fetched_total":     linesFetched,
		"molcache_molecular_grow_molecules_total":    grown,
		"molcache_molecular_shrink_molecules_total":  shrunk,
		"molcache_molecular_rebalances_total":        rebalanced,
		"molcache_molecular_region_creates_total":    uint64(len(c.Regions())),
		"molcache_fault_retired_molecules_total":     deg.RetiredMolecules,
		"molcache_fault_retirement_writebacks_total": deg.RetirementWritebacks,
		"molcache_fault_line_corruptions_total":      deg.LineCorruptions,
		"molcache_fault_dirty_corruptions_total":     deg.DirtyCorruptions,
		"molcache_fault_noc_retries_total":           deg.NoCRetries,
		"molcache_fault_noc_abandoned_lookups_total": deg.NoCAbandonedLookups,
		"molcache_fault_uncached_bypasses_total":     deg.UncachedBypasses,
	} {
		if got, ok := s.Counters[name]; !ok || got != want {
			t.Errorf("%s = %d (present %v), want %d", name, got, ok, want)
		}
	}

	// The folded probe histogram equals one that observed every access.
	const probeCount = "molcache_molecular_probe_count"
	hist := observed.Histogram(probeCount, c.probeCountBounds())
	for v, n := range probes.Buckets {
		for ; n > 0; n-- {
			hist.Observe(float64(v))
		}
	}
	want := observed.Snapshot()
	if got := s.Histograms[probeCount]; !reflect.DeepEqual(got, want.Histograms[probeCount]) {
		t.Errorf("%s = %+v, want %+v", probeCount, got, want.Histograms[probeCount])
	}

	series := 0
	for name, w := range want.Histograms {
		if !strings.HasPrefix(name, "molcache_access_service_cycles{") {
			continue
		}
		series++
		if got := s.Histograms[name]; !reflect.DeepEqual(got, w) {
			t.Errorf("%s = %+v, want %+v", name, got, w)
		}
	}
	if series != len(c.Regions()) {
		t.Errorf("observed %d service-time series, want one per region (%d)", series, len(c.Regions()))
	}
	for _, gone := range []string{"molcache_access_service_cycles", "molcache_fault_retired_molecules"} {
		if _, ok := s.Histograms[gone]; ok {
			t.Errorf("registry still holds histogram %s", gone)
		}
		if _, ok := s.Gauges[gone]; ok {
			t.Errorf("registry still holds gauge %s", gone)
		}
	}
}

// TestProbeCountBucketsCoverACluster sweeps every molecule of a
// 256-molecule cluster: each miss of a region that owns the whole
// cluster probes all of them, and each such access must land in a
// finite bucket of molcache_molecular_probe_count. A cluster of at
// most 128 molecules keeps the bounds 1 through 128.
func TestProbeCountBucketsCoverACluster(t *testing.T) {
	c := MustNew(Config{TotalSize: 2 * addr.MB, TilesPerCluster: 4, Policy: RandyReplacement, Seed: 3})
	if n := c.cfg.MoleculesPerTile() * c.cfg.TilesPerCluster; n != 256 {
		t.Fatalf("cluster holds %d molecules, want 256", n)
	}
	r, err := c.CreateRegion(1, RegionOptions{HomeCluster: 0, HomeTile: 0, InitialMolecules: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Grow(r, 192); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	c.AttachTelemetry(nil, reg)
	for i := uint64(0); i < 5_000; i++ {
		c.Access(ref(1, i*4096, trace.Read))
	}
	hs := reg.Snapshot().Histograms["molcache_molecular_probe_count"]
	n := len(hs.Buckets)
	inf, lastFinite, at128 := hs.Buckets[n-1], hs.Buckets[n-2], hs.Buckets[n-3]
	if lastFinite.UpperBound != 256 || at128.UpperBound != 128 {
		t.Fatalf("top finite bounds %v and %v, want 128 and 256", at128.UpperBound, lastFinite.UpperBound)
	}
	if lastFinite.Count == at128.Count {
		t.Fatal("no access probed more than 128 molecules; the sweep is vacuous")
	}
	if inf.Count != lastFinite.Count {
		t.Errorf("%d of %d accesses landed in +Inf", inf.Count-lastFinite.Count, inf.Count)
	}

	small := MustNew(smallConfig(RandyReplacement))
	if got, want := small.probeCountBounds(), []float64{1, 2, 4, 8, 16, 32, 64, 128}; !reflect.DeepEqual(got, want) {
		t.Errorf("32-molecule cluster bounds %v, want %v", got, want)
	}
}
