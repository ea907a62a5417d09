package resize

import "molcache/internal/telemetry"

// AttachTelemetry routes resize decisions through a tracer (one
// KindResize event per decision, mirroring the decision log) and a
// registry (per-action decision counts, the period and the daemon's
// cycle account, each a view over the controller's own state). Either
// may be nil; the default detached controller pays one pointer check
// per decision.
func (c *Controller) AttachTelemetry(tr *telemetry.Tracer, reg *telemetry.Registry) {
	c.tracer = tr
	if reg == nil {
		return
	}
	for _, a := range allActions {
		reg.RegisterCounterFunc(`molcache_resize_actions_total{action="`+string(a)+`"}`,
			func() uint64 { return c.actions[a] })
	}
	reg.RegisterGaugeFunc("molcache_resize_period_addresses",
		func() float64 { return float64(c.period) })
	reg.RegisterGaugeFunc("molcache_resize_daemon_cycles",
		func() float64 { return float64(c.cycles) })
}
