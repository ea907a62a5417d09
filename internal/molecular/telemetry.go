package molecular

import (
	"strconv"

	"molcache/internal/telemetry"
)

// instruments caches the registry handles the hot path increments, so
// an access never does a name lookup. A nil *instruments (the default)
// means metrics are off and finish pays a single pointer check.
type instruments struct {
	hits         *telemetry.Counter
	misses       *telemetry.Counter
	remoteHits   *telemetry.Counter
	tagProbes    *telemetry.Counter
	writebacks   *telemetry.Counter
	linesFetched *telemetry.Counter
	regionMakes  *telemetry.Counter
	grows        *telemetry.Counter
	shrinks      *telemetry.Counter
	rebalances   *telemetry.Counter

	// Fault-injection and graceful-degradation counters.
	retirements      *telemetry.Counter
	retireWritebacks *telemetry.Counter
	corruptions      *telemetry.Counter
	dirtyCorruptions *telemetry.Counter
	nocRetries       *telemetry.Counter
	nocAbandoned     *telemetry.Counter
	bypasses         *telemetry.Counter

	// Distribution instruments: tag probes per access and the modelled
	// access service time (hit/miss base latency plus NoC transit).
	probeHist   *telemetry.Histogram
	serviceHist *telemetry.Histogram
}

// probeCountBounds buckets the per-access tag-probe count: 1 probe for
// a direct home-tile hit up through full-cluster sweeps.
var probeCountBounds = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// AttachTelemetry routes the cache's observations through a tracer
// (structured events) and a registry (live metrics). Either may be nil;
// a nil tracer records no events and a nil registry registers no
// metrics, leaving the access path with one pointer check each.
// Regions created before the call get their gauges registered now;
// regions created after, at creation.
func (c *Cache) AttachTelemetry(tr *telemetry.Tracer, reg *telemetry.Registry) {
	c.tracer = tr
	c.reg = reg
	if reg == nil {
		c.ins = nil
		return
	}
	c.ins = &instruments{
		hits:         reg.Counter("molcache_molecular_hits_total"),
		misses:       reg.Counter("molcache_molecular_misses_total"),
		remoteHits:   reg.Counter("molcache_molecular_remote_tile_hits_total"),
		tagProbes:    reg.Counter("molcache_molecular_tag_probes_total"),
		writebacks:   reg.Counter("molcache_molecular_writebacks_total"),
		linesFetched: reg.Counter("molcache_molecular_lines_fetched_total"),
		regionMakes:  reg.Counter("molcache_molecular_region_creates_total"),
		grows:        reg.Counter("molcache_molecular_grow_molecules_total"),
		shrinks:      reg.Counter("molcache_molecular_shrink_molecules_total"),
		rebalances:   reg.Counter("molcache_molecular_rebalances_total"),

		retirements:      reg.Counter("molcache_fault_retired_molecules_total"),
		retireWritebacks: reg.Counter("molcache_fault_retirement_writebacks_total"),
		corruptions:      reg.Counter("molcache_fault_line_corruptions_total"),
		dirtyCorruptions: reg.Counter("molcache_fault_dirty_corruptions_total"),
		nocRetries:       reg.Counter("molcache_fault_noc_retries_total"),
		nocAbandoned:     reg.Counter("molcache_fault_noc_abandoned_lookups_total"),
		bypasses:         reg.Counter("molcache_fault_uncached_bypasses_total"),

		probeHist:   reg.Histogram("molcache_molecular_probe_count", probeCountBounds),
		serviceHist: reg.Histogram("molcache_access_service_cycles", nil),
	}
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
	reg.RegisterGaugeFunc("molcache_fault_retired_molecules",
		func() float64 { return float64(c.deg.RetiredMolecules) })
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
