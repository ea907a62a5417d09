package resize

import "molcache/internal/telemetry"

// AttachTelemetry routes resize decisions through a tracer (one
// KindResize event per decision, mirroring the decision log) and a
// registry (per-action decision counters and a live period gauge).
// Either may be nil; the default detached controller pays one pointer
// check per decision.
func (c *Controller) AttachTelemetry(tr *telemetry.Tracer, reg *telemetry.Registry) {
	c.tracer = tr
	if reg == nil {
		c.decisions = nil
		return
	}
	c.decisions = map[Action]*telemetry.Counter{
		ActionGrowChunk:  reg.Counter(`molcache_resize_actions_total{action="grow-chunk"}`),
		ActionGrowLinear: reg.Counter(`molcache_resize_actions_total{action="grow-linear"}`),
		ActionShrink:     reg.Counter(`molcache_resize_actions_total{action="shrink"}`),
		ActionNone:       reg.Counter(`molcache_resize_actions_total{action="none"}`),
		ActionRebalance:  reg.Counter(`molcache_resize_actions_total{action="rebalance"}`),
	}
	reg.RegisterGaugeFunc("molcache_resize_period_addresses",
		func() float64 { return float64(c.period) })
	reg.RegisterGaugeFunc("molcache_resize_daemon_cycles",
		func() float64 { return float64(c.cycles) })
}

// observe records one decision on the attached telemetry. Called from
// resizeOne's deferred record so tracing sees exactly the decisions the
// log does, in the same order.
func (c *Controller) observe(d Decision) {
	if ctr := c.decisions[d.Action]; ctr != nil {
		ctr.Inc()
	}
	if c.tracer != nil {
		c.tracer.Resize(d.At, d.ASID, string(d.Action), d.Delta, d.SizeAfter)
	}
}
