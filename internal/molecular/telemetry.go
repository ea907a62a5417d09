package molecular

import (
	"math"
	"strconv"

	"molcache/internal/telemetry"
)

// AttachTelemetry routes the cache's observations through a tracer
// (structured events) and a registry (live metrics). Either may be nil;
// a nil tracer records no events and a nil registry registers no
// metrics. Every metric is a view over a count the cache keeps and its
// checkpoint saves, so the registry writes nothing per access and
// reports lifetime totals whenever it is attached. Regions created
// before the call get their series registered now; regions created
// after, at creation.
func (c *Cache) AttachTelemetry(tr *telemetry.Tracer, reg *telemetry.Registry) {
	c.tracer = tr
	c.reg = reg
	if reg == nil {
		return
	}
	reg.RegisterCounterFunc("molcache_molecular_hits_total",
		func() uint64 { return c.ledger.Total.Hits })
	reg.RegisterCounterFunc("molcache_molecular_misses_total",
		func() uint64 { return c.ledger.Total.Misses })
	reg.RegisterCounterFunc("molcache_molecular_tag_probes_total",
		func() uint64 { return c.probes.Sum })
	reg.RegisterCounterFunc("molcache_molecular_remote_tile_hits_total",
		func() uint64 { return c.counts.RemoteHits })
	reg.RegisterCounterFunc("molcache_molecular_writebacks_total",
		func() uint64 { return c.counts.Writebacks })
	reg.RegisterCounterFunc("molcache_molecular_lines_fetched_total",
		func() uint64 { return c.counts.LinesFetched })
	reg.RegisterCounterFunc("molcache_molecular_grow_molecules_total",
		func() uint64 { return c.counts.Grown })
	reg.RegisterCounterFunc("molcache_molecular_shrink_molecules_total",
		func() uint64 { return c.counts.Shrunk })
	reg.RegisterCounterFunc("molcache_molecular_rebalances_total",
		func() uint64 { return c.counts.Rebalanced })
	// Regions are never deleted, so the list's length counts creations.
	reg.RegisterCounterFunc("molcache_molecular_region_creates_total",
		func() uint64 { return uint64(len(c.regionList)) })
	bounds := c.probeCountBounds()
	reg.RegisterHistogramFunc("molcache_molecular_probe_count",
		func() telemetry.HistogramSnapshot { return c.probeCountSnapshot(bounds) })

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
	// Regions() iterates in ASID order, so registration (and any panic
	// on a name collision) is deterministic.
	for _, r := range c.Regions() {
		c.registerRegionSeries(r)
	}
}

// probeCountBounds buckets the per-access tag-probe count: 1 probe for
// a direct home-tile hit, doubling through 128 and on until a bucket
// holds a sweep of every molecule in a cluster, the most one access
// can probe.
func (c *Cache) probeCountBounds() []float64 {
	perCluster := float64(c.cfg.MoleculesPerTile() * c.cfg.TilesPerCluster)
	bounds := []float64{1}
	for top := 1.0; top < 128 || top < perCluster; {
		top *= 2
		bounds = append(bounds, top)
	}
	return bounds
}

// probeCountSnapshot folds the probe histogram, which has one bucket
// per possible probe count (0 through every molecule of a cluster),
// into bounds. The fold is exact: each count lands in the bucket an
// observation of it would.
func (c *Cache) probeCountSnapshot(bounds []float64) telemetry.HistogramSnapshot {
	counts := make([]uint64, len(bounds)+1)
	for probes, n := range c.probes.Buckets {
		counts[bucketOf(bounds, float64(probes))] += n
	}
	return cumulative(bounds, counts, float64(c.probes.Sum))
}

// serviceCycleSnapshot is region r's service-time histogram: every
// access the ledger cell counts, at the latency serviceCycles gives it.
// The accesses that paid no NoC penalty sit at the hit or the miss
// latency; the penalized ones are in r.noc's buckets.
func serviceCycleSnapshot(r *Region) telemetry.HistogramSnapshot {
	hit, miss := serviceCycles(true, 0), serviceCycles(false, 0)
	counts := r.noc.Service
	counts[bucketOf(serviceCycleBounds[:], float64(hit))] += r.appCell.Hits - r.noc.Accesses.Hits
	counts[bucketOf(serviceCycleBounds[:], float64(miss))] += r.appCell.Misses - r.noc.Accesses.Misses
	sum := r.appCell.Hits*hit + r.appCell.Misses*miss + r.noc.Cycles
	return cumulative(serviceCycleBounds[:], counts[:], float64(sum))
}

// bucketOf returns the bucket an observation of v lands in: the first
// whose upper bound is at least v, or len(bounds) for +Inf.
func bucketOf(bounds []float64, v float64) int {
	i := 0
	for i < len(bounds) && v > bounds[i] {
		i++
	}
	return i
}

// cumulative builds a histogram snapshot from per-bucket counts
// (counts[len(bounds)] is the +Inf bucket) and the observations' sum.
func cumulative(bounds []float64, counts []uint64, sum float64) telemetry.HistogramSnapshot {
	hs := telemetry.HistogramSnapshot{Sum: sum, Buckets: make([]telemetry.Bucket, len(counts))}
	for i, n := range counts {
		hs.Count += n
		hs.Buckets[i] = telemetry.Bucket{UpperBound: math.Inf(+1), Count: hs.Count}
		if i < len(bounds) {
			hs.Buckets[i].UpperBound = bounds[i]
		}
	}
	return hs
}

// registerRegionSeries exports one region's miss rate, size and service-
// time distribution — the paper's per-ASID quantities that Algorithm 1
// steers by, plus the latency distribution Com-CAS-style apportioning
// wants instead of a scalar.
func (c *Cache) registerRegionSeries(r *Region) {
	if c.reg == nil {
		return
	}
	label := `{asid="` + strconv.Itoa(int(r.asid)) + `"}`
	c.reg.RegisterGaugeFunc("molcache_region_miss_rate"+label,
		func() float64 { return r.appCell.MissRate() })
	c.reg.RegisterGaugeFunc("molcache_region_molecules"+label,
		func() float64 { return float64(r.count) })
	c.reg.RegisterHistogramFunc("molcache_access_service_cycles"+label,
		func() telemetry.HistogramSnapshot { return serviceCycleSnapshot(r) })
}
