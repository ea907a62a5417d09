package cache

import "molcache/internal/telemetry"

// cacheInstruments caches the registry handles for the access path, so
// a hit or miss never does a name lookup. Nil (the default) means
// metrics are off and Access pays a single pointer check.
type cacheInstruments struct {
	hits       *telemetry.Counter
	misses     *telemetry.Counter
	tagProbes  *telemetry.Counter
	writebacks *telemetry.Counter
}

// AttachTelemetry registers the cache's counters under the fixed
// molcache_cache_* names, tagged with a {cache="<instance>"} label
// (default instance "cache"); the label keeps several caches — molsim's
// L2 and a baseline, say — apart inside one shared registry while the
// metric names stay grep-able literals. A nil registry detaches.
func (c *Cache) AttachTelemetry(reg *telemetry.Registry, instance string) {
	if reg == nil {
		c.ins = nil
		return
	}
	if instance == "" {
		instance = "cache"
	}
	label := `{cache="` + instance + `"}`
	c.ins = &cacheInstruments{
		hits:       reg.Counter("molcache_cache_hits_total" + label),
		misses:     reg.Counter("molcache_cache_misses_total" + label),
		tagProbes:  reg.Counter("molcache_cache_tag_probes_total" + label),
		writebacks: reg.Counter("molcache_cache_writebacks_total" + label),
	}
	reg.RegisterGaugeFunc("molcache_cache_miss_rate"+label,
		func() float64 { return c.ledger.Total.MissRate() })
	reg.RegisterGaugeFunc("molcache_cache_valid_lines"+label,
		func() float64 { return float64(c.ValidLines()) })
}

// record notes one access on the attached instruments.
func (ins *cacheInstruments) record(hit bool, probes int, writeback bool) {
	if hit {
		ins.hits.Inc()
	} else {
		ins.misses.Inc()
	}
	ins.tagProbes.Add(uint64(probes))
	if writeback {
		ins.writebacks.Inc()
	}
}
