package telemetry

import (
	"reflect"
	"strings"
	"testing"
)

// populated builds a registry exercising every instrument type,
// including labeled series.
func populated() *Registry {
	r := NewRegistry()
	r.Counter("molcache_hits_total").Add(120)
	r.Counter("molcache_misses_total").Add(30)
	r.Counter(`molcache_resize_actions_total{action="grow-chunk"}`).Add(4)
	r.Counter(`molcache_resize_actions_total{action="shrink"}`).Add(2)
	r.Gauge("molcache_free_molecules").Set(48)
	r.Gauge(`molcache_region_miss_rate{asid="1"}`).Set(0.125)
	h := r.Histogram("molcache_access_latency_cycles", []float64{1, 12, 200})
	for _, v := range []float64{1, 1, 12, 200, 500} {
		h.Observe(v)
	}
	return r
}

func TestPrometheusRoundTrip(t *testing.T) {
	snap := populated().Snapshot()
	text := snap.PrometheusString()
	back, err := ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParsePrometheus: %v\ntext:\n%s", err, text)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Errorf("Prometheus round trip diverged:\n got %+v\nwant %+v\ntext:\n%s", back, snap, text)
	}
}

func TestPrometheusFormatShape(t *testing.T) {
	text := populated().Snapshot().PrometheusString()
	for _, want := range []string{
		"# TYPE molcache_hits_total counter",
		"molcache_hits_total 120",
		"# TYPE molcache_free_molecules gauge",
		`molcache_region_miss_rate{asid="1"} 0.125`,
		"# TYPE molcache_access_latency_cycles histogram",
		`molcache_access_latency_cycles_bucket{le="+Inf"} 5`,
		"molcache_access_latency_cycles_count 5",
		"molcache_access_latency_cycles_sum 714",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	// One TYPE line per family even with several labeled series.
	if strings.Count(text, "# TYPE molcache_resize_actions_total counter") != 1 {
		t.Errorf("labeled family got duplicate TYPE lines:\n%s", text)
	}
}

func TestSnapshotIsFrozen(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Add(1)
	snap := r.Snapshot()
	c.Add(100)
	if snap.Counters["c"] != 1 {
		t.Errorf("snapshot tracked live counter: %d", snap.Counters["c"])
	}
}

func TestParsePrometheusRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"untyped_metric 5",
		"# TYPE x counter\nx notanumber",
	} {
		if _, err := ParsePrometheus(strings.NewReader(bad)); err == nil {
			t.Errorf("ParsePrometheus accepted %q", bad)
		}
	}
}

func TestLabeledHistogramRoundTrip(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(`lat{core="0"}`, []float64{5})
	h.Observe(1)
	h.Observe(50)
	snap := r.Snapshot()
	back, err := ParsePrometheus(strings.NewReader(snap.PrometheusString()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Errorf("labeled histogram diverged:\n got %+v\nwant %+v\ntext:\n%s",
			back, snap, snap.PrometheusString())
	}
}
