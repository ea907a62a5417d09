package cache

import "molcache/internal/telemetry"

// AttachTelemetry registers the cache's metrics under the fixed
// molcache_cache_* names with the {cache="l2"} label: molsim's L2 is
// the one traditional cache an entry point attaches. Every metric is a
// view over the cache's own counts (its ledger, and its writebacks;
// every access probes all ways), so the registry writes nothing per
// access and reports lifetime totals. A nil registry registers nothing.
func (c *Cache) AttachTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	const label = `{cache="l2"}`
	reg.RegisterCounterFunc("molcache_cache_writebacks_total"+label,
		func() uint64 { return c.writebacks })
	reg.RegisterCounterFunc("molcache_cache_hits_total"+label,
		func() uint64 { return c.ledger.Total.Hits })
	reg.RegisterCounterFunc("molcache_cache_misses_total"+label,
		func() uint64 { return c.ledger.Total.Misses })
	reg.RegisterCounterFunc("molcache_cache_tag_probes_total"+label,
		func() uint64 { return uint64(c.ways) * c.ledger.Total.Accesses() })
	reg.RegisterGaugeFunc("molcache_cache_miss_rate"+label,
		func() float64 { return c.ledger.Total.MissRate() })
	reg.RegisterGaugeFunc("molcache_cache_valid_lines"+label,
		func() float64 { return float64(c.ValidLines()) })
}
