package cache

import "molcache/internal/telemetry"

// AttachTelemetry registers the cache's metrics under the fixed
// molcache_cache_* names, tagged with a {cache="<instance>"} label
// (default instance "cache"); the label keeps several caches — molsim's
// L2 and a baseline, say — apart inside one shared registry while the
// metric names stay grep-able literals. Hits, misses and tag probes
// are funcs over the cache's ledger (every access probes all ways), so
// they report lifetime totals; only the writeback count, which no other
// structure keeps, is written per access. A nil registry detaches.
func (c *Cache) AttachTelemetry(reg *telemetry.Registry, instance string) {
	if reg == nil {
		c.writebacks = nil
		return
	}
	if instance == "" {
		instance = "cache"
	}
	label := `{cache="` + instance + `"}`
	c.writebacks = reg.Counter("molcache_cache_writebacks_total" + label)
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
