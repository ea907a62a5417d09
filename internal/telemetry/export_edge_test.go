package telemetry

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// Edge cases of the Prometheus text exporter and its parser: label
// values with escape-worthy bytes, the exact histogram line set, and
// the JSON / text round trips of the histogram kind.

func TestPrometheusLabelValueEscaping(t *testing.T) {
	values := []string{
		`plain`,
		`with"quote`,
		`back\slash`,
		`trailing\`, // closing quote preceded by a backslash once quoted
		"new\nline",
		`mix\"ed` + "\n" + `\\`,
	}
	reg := NewRegistry()
	for i, v := range values {
		reg.Counter(`molcache_edge_total{v=` + strconv.Quote(v) + `,idx=` + strconv.Quote(strconv.Itoa(i)) + `}`).Add(uint64(i + 1))
	}
	snap := reg.Snapshot()
	got, err := ParsePrometheus(strings.NewReader(snap.PrometheusString()))
	if err != nil {
		t.Fatalf("ParsePrometheus: %v\n%s", err, snap.PrometheusString())
	}
	if !reflect.DeepEqual(snap.Counters, got.Counters) {
		t.Fatalf("escaped labels did not round-trip:\nwant %v\ngot  %v", snap.Counters, got.Counters)
	}
}

func TestSplitLabelsTrailingBackslash(t *testing.T) {
	// `a\` quotes to "a\\": the closing quote is preceded by a
	// backslash, which a naive look-behind treats as escaped, fusing
	// the two pairs into one.
	body := `v="a\\",w="b"`
	got := splitLabels(body)
	want := []string{`v="a\\"`, `w="b"`}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("splitLabels(%q) = %q, want %q", body, got, want)
	}
}

func TestPrometheusHistogramTextLines(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("molcache_probe_count", []float64{1, 2, 4})
	for _, v := range []float64{1, 1, 2, 3, 9} {
		h.Observe(v)
	}
	text := reg.Snapshot().PrometheusString()
	want := []string{
		"# TYPE molcache_probe_count histogram",
		`molcache_probe_count_bucket{le="1"} 2`,
		`molcache_probe_count_bucket{le="2"} 3`,
		`molcache_probe_count_bucket{le="4"} 4`,
		`molcache_probe_count_bucket{le="+Inf"} 5`,
		"molcache_probe_count_sum 16",
		"molcache_probe_count_count 5",
		"",
	}
	if got := strings.Join(want, "\n"); text != got {
		t.Fatalf("histogram text:\n%s\nwant:\n%s", text, got)
	}
}

func TestPrometheusLabeledHistogramRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram(`molcache_access_service_cycles{asid="3"}`, []float64{8, 64}).Observe(5)
	reg.Histogram(`molcache_access_service_cycles{asid="3"}`, nil).Observe(200)
	reg.Histogram("molcache_molecular_probe_count", []float64{2, 4, 8}).Observe(6)
	reg.Counter("molcache_edge_hits_total").Add(7)
	reg.Gauge("molcache_edge_occupancy").Set(0.625)

	snap := reg.Snapshot()
	text := snap.PrometheusString()
	if !strings.Contains(text, `molcache_access_service_cycles_bucket{asid="3",le="8"} 1`) {
		t.Fatalf("labeled bucket line missing:\n%s", text)
	}
	if !strings.Contains(text, `molcache_access_service_cycles_sum{asid="3"} 205`) {
		t.Fatalf("labeled sum line missing:\n%s", text)
	}
	got, err := ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParsePrometheus: %v\n%s", err, text)
	}
	if !reflect.DeepEqual(snap, got) {
		t.Fatalf("text round trip diverged:\nwant %+v\ngot  %+v", snap, got)
	}
}

func TestHistogramJSONRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram(`molcache_access_service_cycles{asid="1"}`, nil).Observe(12)
	reg.Histogram(`molcache_access_service_cycles{asid="1"}`, nil).Observe(212)
	snap := reg.Snapshot()

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"le": "+Inf"`) {
		t.Fatalf("+Inf bucket not serialized as string:\n%s", data)
	}
	var got Snapshot
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, got) {
		t.Fatalf("JSON round trip diverged:\nwant %+v\ngot  %+v", snap, got)
	}
	hs := got.Histograms[`molcache_access_service_cycles{asid="1"}`]
	if hs.Count != 2 || hs.Sum != 224 {
		t.Fatalf("histogram state lost: %+v", hs)
	}
	last := hs.Buckets[len(hs.Buckets)-1]
	if !math.IsInf(last.UpperBound, +1) || last.Count != 2 {
		t.Fatalf("+Inf bucket lost: %+v", last)
	}
}

func TestAtomicSnapshotSkipsGaugeFuncs(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("molcache_edge_hits_total").Add(3)
	reg.Gauge("molcache_edge_occupancy").Set(1.5)
	reg.Histogram("molcache_probe_count", []float64{1, 2}).Observe(2)
	called := 0
	reg.RegisterGaugeFunc("molcache_edge_derived", func() float64 {
		called++
		return 42
	})
	reg.RegisterCounterFunc("molcache_edge_view_total", func() uint64 {
		called++
		return 7
	})
	reg.RegisterHistogramFunc("molcache_edge_view_hist", func() HistogramSnapshot {
		called++
		return HistogramSnapshot{Buckets: []Bucket{{math.Inf(+1), 0}}}
	})

	snap := reg.AtomicSnapshot()
	if called != 0 {
		t.Fatal("AtomicSnapshot ran a func")
	}
	if _, ok := snap.Gauges["molcache_edge_derived"]; ok {
		t.Fatal("AtomicSnapshot exported a gauge func")
	}
	if _, ok := snap.Counters["molcache_edge_view_total"]; ok {
		t.Fatal("AtomicSnapshot exported a counter func")
	}
	if _, ok := snap.Histograms["molcache_edge_view_hist"]; ok {
		t.Fatal("AtomicSnapshot exported a histogram func")
	}
	if snap.Counters["molcache_edge_hits_total"] != 3 ||
		snap.Gauges["molcache_edge_occupancy"] != 1.5 ||
		snap.Histograms["molcache_probe_count"].Count != 1 {
		t.Fatalf("AtomicSnapshot lost instruments: %+v", snap)
	}

	full := reg.Snapshot()
	if called != 3 || full.Gauges["molcache_edge_derived"] != 42 ||
		full.Counters["molcache_edge_view_total"] != 7 || full.Histograms["molcache_edge_view_hist"].Buckets == nil {
		t.Fatal("full Snapshot must still evaluate every func")
	}

	var nilReg *Registry
	empty := nilReg.AtomicSnapshot()
	if len(empty.Counters)+len(empty.Gauges)+len(empty.Histograms) != 0 {
		t.Fatal("nil AtomicSnapshot not empty")
	}
}
