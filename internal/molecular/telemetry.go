package molecular

import (
	"math"
	"strconv"

	"molcache/internal/telemetry"
)

// instruments caches the registry handles the access and resize paths
// increment, so an access never does a name lookup. They hold the
// counts no simulator structure keeps; every count the cache already
// keeps (the ledger, the probe histogram, the degradation counts, the
// region list) is a func the registry reads at snapshot time. A nil
// *instruments (the default) means metrics are off and finish pays a
// single pointer check.
type instruments struct {
	remoteHits   *telemetry.Counter
	writebacks   *telemetry.Counter
	linesFetched *telemetry.Counter
	grows        *telemetry.Counter
	shrinks      *telemetry.Counter
	rebalances   *telemetry.Counter
}

// probeCountBounds buckets the per-access tag-probe count: 1 probe for
// a direct home-tile hit up through full-cluster sweeps.
var probeCountBounds = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// AttachTelemetry routes the cache's observations through a tracer
// (structured events) and a registry (live metrics). Either may be nil;
// a nil tracer records no events and a nil registry registers no
// metrics, leaving the access path with one pointer check each.
// Regions created before the call get their gauges registered now;
// regions created after, at creation. The counters the registry reads
// from the cache's own counts report lifetime totals, whenever the
// registry is attached.
func (c *Cache) AttachTelemetry(tr *telemetry.Tracer, reg *telemetry.Registry) {
	c.tracer = tr
	c.reg = reg
	if reg == nil {
		c.ins = nil
		return
	}
	c.ins = &instruments{
		remoteHits:   reg.Counter("molcache_molecular_remote_tile_hits_total"),
		writebacks:   reg.Counter("molcache_molecular_writebacks_total"),
		linesFetched: reg.Counter("molcache_molecular_lines_fetched_total"),
		grows:        reg.Counter("molcache_molecular_grow_molecules_total"),
		shrinks:      reg.Counter("molcache_molecular_shrink_molecules_total"),
		rebalances:   reg.Counter("molcache_molecular_rebalances_total"),
	}
	reg.RegisterCounterFunc("molcache_molecular_hits_total",
		func() uint64 { return c.ledger.Total.Hits })
	reg.RegisterCounterFunc("molcache_molecular_misses_total",
		func() uint64 { return c.ledger.Total.Misses })
	reg.RegisterCounterFunc("molcache_molecular_tag_probes_total",
		func() uint64 { return c.probes.Sum })
	// Regions are never deleted, so the list's length counts creations.
	reg.RegisterCounterFunc("molcache_molecular_region_creates_total",
		func() uint64 { return uint64(len(c.regionList)) })
	reg.RegisterHistogramFunc("molcache_molecular_probe_count", c.probeCountSnapshot)

	reg.RegisterCounterFunc("molcache_fault_retired_molecules_total",
		func() uint64 { return c.deg.RetiredMolecules })
	reg.RegisterCounterFunc("molcache_fault_retirement_writebacks_total",
		func() uint64 { return c.deg.RetirementWritebacks })
	reg.RegisterCounterFunc("molcache_fault_line_corruptions_total",
		func() uint64 { return c.deg.LineCorruptions })
	reg.RegisterCounterFunc("molcache_fault_dirty_corruptions_total",
		func() uint64 { return c.deg.DirtyCorruptions })
	reg.RegisterCounterFunc("molcache_fault_noc_retries_total",
		func() uint64 { return c.deg.NoCRetries })
	reg.RegisterCounterFunc("molcache_fault_noc_abandoned_lookups_total",
		func() uint64 { return c.deg.NoCAbandonedLookups })
	reg.RegisterCounterFunc("molcache_fault_uncached_bypasses_total",
		func() uint64 { return c.deg.UncachedBypasses })

	reg.RegisterGaugeFunc("molcache_index_entries",
		func() float64 {
			n := 0
			for _, r := range c.regionList {
				n += r.index.size()
			}
			return float64(n)
		})
	reg.RegisterGaugeFunc("molcache_molecular_free_molecules",
		func() float64 { return float64(c.FreeMolecules()) })
	reg.RegisterGaugeFunc("molcache_molecular_miss_rate",
		func() float64 { return c.ledger.Total.MissRate() })
	reg.RegisterGaugeFunc("molcache_molecular_avg_probes_per_access",
		func() float64 { return c.AverageProbes() })
	// Regions() iterates in ASID order, so gauge registration (and any
	// panic on a name collision) is deterministic.
	for _, r := range c.Regions() {
		c.registerRegionGauges(r)
	}
}

// probeCountSnapshot folds the probe histogram, which has one bucket
// per possible probe count (0 through every molecule of a cluster),
// into probeCountBounds' cumulative buckets. The fold is exact: each
// count lands in every bucket whose bound it does not exceed, as an
// observation of it would.
func (c *Cache) probeCountSnapshot() telemetry.HistogramSnapshot {
	hs := telemetry.HistogramSnapshot{
		Count:   c.probes.Count,
		Sum:     float64(c.probes.Sum),
		Buckets: make([]telemetry.Bucket, len(probeCountBounds)+1),
	}
	for i := range hs.Buckets {
		hs.Buckets[i].UpperBound = math.Inf(+1)
		if i < len(probeCountBounds) {
			hs.Buckets[i].UpperBound = probeCountBounds[i]
		}
		for probes, n := range c.probes.Buckets {
			if float64(probes) <= hs.Buckets[i].UpperBound {
				hs.Buckets[i].Count += n
			}
		}
	}
	return hs
}

// Registry returns the attached metrics registry (nil when metrics are
// off). Checkpointing reads it to fold the live counters into the
// snapshot alongside the cache state.
func (c *Cache) Registry() *telemetry.Registry { return c.reg }

// registerRegionGauges exports one region's miss rate, size and service-
// time distribution — the paper's per-ASID quantities that Algorithm 1
// steers by, plus the latency distribution Com-CAS-style apportioning
// wants instead of a scalar.
func (c *Cache) registerRegionGauges(r *Region) {
	if c.reg == nil {
		return
	}
	label := `{asid="` + strconv.Itoa(int(r.asid)) + `"}`
	c.reg.RegisterGaugeFunc("molcache_region_miss_rate"+label,
		func() float64 { return r.appCell.MissRate() })
	c.reg.RegisterGaugeFunc("molcache_region_molecules"+label,
		func() float64 { return float64(r.count) })
	r.svcHist = c.reg.Histogram("molcache_access_service_cycles"+label, nil)
}
