package molecular

import (
	"reflect"
	"strings"
	"testing"

	"molcache/internal/faults"
	"molcache/internal/rng"
	"molcache/internal/telemetry"
	"molcache/internal/trace"
)

// TestRegistryViewsReadTheCache runs a Randy cache through a fault
// campaign — NoC delay windows (retries, abandoned lookups and the
// bypasses they force), retirements and line corruptions — and attaches
// a registry only after 10,000 accesses. Every metric the registry reads
// from the cache's own counts must equal that count, lifetime totals
// included, and the per-region service-time series, which count for
// themselves, must hold every access since the attach.
func TestRegistryViewsReadTheCache(t *testing.T) {
	c := MustNew(smallConfig(RandyReplacement))
	spill, err := c.CreateRegion(1, RegionOptions{HomeCluster: 0, HomeTile: 0, InitialMolecules: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Capacity on sibling tiles makes the Ulmo sweeps the NoC windows hit.
	if _, err := c.Grow(spill, 8); err != nil {
		t.Fatal(err)
	}
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
	src := rng.New(11)
	run := func(n int) {
		for i := 0; i < n; i++ {
			asid := uint16(1 + src.Intn(3)) // ASIDs 2 and 3 are auto-admitted
			k := trace.Read
			if src.Intn(4) == 0 {
				k = trace.Write
			}
			c.Access(ref(asid, uint64(asid)<<36|uint64(src.Intn(6_000))*64, k))
		}
	}
	const before, after = 10_000, 20_000
	run(before)
	reg := telemetry.NewRegistry()
	c.AttachTelemetry(nil, reg)
	run(after)

	s := reg.Snapshot()
	total, probes, deg := c.Ledger().Total, c.ProbeHistogram(), c.Degradation()
	if total.Accesses() != before+after {
		t.Fatalf("ledger counts %d accesses, want %d", total.Accesses(), before+after)
	}
	if deg.NoCRetries == 0 || deg.NoCAbandonedLookups == 0 || deg.UncachedBypasses == 0 ||
		deg.RetiredMolecules == 0 || deg.LineCorruptions == 0 {
		t.Fatalf("campaign left a fault path unexercised: %+v", deg)
	}
	for name, want := range map[string]uint64{
		"molcache_molecular_hits_total":              total.Hits,
		"molcache_molecular_misses_total":            total.Misses,
		"molcache_molecular_tag_probes_total":        probes.Sum,
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
			t.Errorf("%s = %d (present %v), want the cache's %d", name, got, ok, want)
		}
	}

	// The folded probe histogram equals one that observed every access.
	const probeCount = "molcache_molecular_probe_count"
	observed := telemetry.NewRegistry()
	hist := observed.Histogram(probeCount, probeCountBounds)
	for v, n := range probes.Buckets {
		for ; n > 0; n-- {
			hist.Observe(float64(v))
		}
	}
	if got, want := s.Histograms[probeCount], observed.Snapshot().Histograms[probeCount]; !reflect.DeepEqual(got, want) {
		t.Errorf("%s = %+v, want %+v", probeCount, got, want)
	}

	var svc uint64
	for name, h := range s.Histograms {
		if strings.HasPrefix(name, "molcache_access_service_cycles{") {
			svc += h.Count
		}
	}
	if svc != after {
		t.Errorf("per-region service series hold %d accesses, want the %d since the attach", svc, after)
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
