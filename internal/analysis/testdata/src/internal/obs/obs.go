// Package obs is a molvet fixture seeded with the failure shapes the
// observability plane makes tempting: stamping an ASID into a counter
// name with fmt.Sprintf (one telemetry-names finding), registering a
// gauge under a name outside the project namespaces (a second),
// registering a histogram whose name is assembled dynamically with no
// literal head (a third), and the same mistakes through the func
// registrations: a counter func outside the namespaces (a fourth) and a
// histogram func named with fmt.Sprintf (a fifth). Its import path ends in internal/obs, so the
// suffix-matched scoping treats it exactly like the real package — which
// also means the goroutine below must NOT be diagnosed: internal/obs is
// on the concurrency allow-list. The literal-name counter and histogram
// at the bottom are the sanctioned patterns and must stay
// diagnostic-free. The golden test pins every expected diagnostic;
// edits here must be mirrored in testdata/obs.golden.
package obs

import (
	"fmt"

	"molcache/internal/telemetry"
)

// CountPerApp stamps the ASID into the counter name itself
// (telemetry-names) instead of tagging it with an {asid} label block.
func CountPerApp(reg *telemetry.Registry, asid uint16) {
	reg.Counter(fmt.Sprintf("obs_publish_asid_%d", asid)).Inc()
}

// GaugeOffNamespace registers a gauge outside the project namespaces
// (telemetry-names).
func GaugeOffNamespace(reg *telemetry.Registry) {
	reg.Gauge("collectState").Set(1)
}

// RegisterDynamic builds the histogram name at run time from a bare
// "obs_" head that names no metric (telemetry-names).
func RegisterDynamic(reg *telemetry.Registry, which string) {
	reg.Histogram("obs_"+which+"_latency_seconds", nil).Observe(1)
}

// CountOffNamespace registers a counter func outside the project
// namespaces (telemetry-names).
func CountOffNamespace(reg *telemetry.Registry, n *uint64) {
	reg.RegisterCounterFunc("collectCount", func() uint64 { return *n })
}

// HistogramPerApp stamps the ASID into a histogram func's name with
// fmt.Sprintf (telemetry-names).
func HistogramPerApp(reg *telemetry.Registry, asid uint16, fn func() telemetry.HistogramSnapshot) {
	reg.RegisterHistogramFunc(fmt.Sprintf("obs_probe_count_%d", asid), fn)
}

// Broadcast starts a goroutine — allowed here: internal/obs is on the
// concurrency allow-list, so this must produce no diagnostics.
func Broadcast(ch chan struct{}) {
	go func() { ch <- struct{}{} }()
}

// CountCollect is the sanctioned counter pattern — a literal obs_* name
// — and must produce no diagnostics.
func CountCollect(reg *telemetry.Registry) {
	reg.Counter("obs_collect_state_total").Inc()
}

// RegisterLatency is the sanctioned histogram pattern — a literal obs_*
// name plus a label suffix — and must produce no diagnostics.
func RegisterLatency(reg *telemetry.Registry, label string) {
	reg.Histogram("obs_publish_latency_accesses"+label, nil).Observe(1)
}
