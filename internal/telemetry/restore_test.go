package telemetry

import (
	"math"
	"strings"
	"testing"
)

// TestLoadSnapshotLoadsOnlyRegistered: a snapshot restores the counters,
// gauges and histograms the registry holds and ignores every other name
// — a metric a later build deleted, or one it now serves from a func —
// so neither comes back frozen; histograms stay validated.
func TestLoadSnapshotLoadsOnlyRegistered(t *testing.T) {
	hist := func(bounds ...float64) HistogramSnapshot {
		hs := HistogramSnapshot{Count: 2, Sum: 3}
		for _, b := range append(bounds, math.Inf(+1)) {
			hs.Buckets = append(hs.Buckets, Bucket{UpperBound: b, Count: 2})
		}
		return hs
	}
	snap := Snapshot{
		Counters: map[string]uint64{
			"molcache_kept_total":          4,
			"molcache_index_lookups_total": 9,
			"molcache_view_total":          100,
		},
		Gauges:     map[string]float64{"molcache_kept": 1.5, "molcache_dropped": 2},
		Histograms: map[string]HistogramSnapshot{"molcache_kept_hist": hist(1, 2), "molcache_dropped_hist": hist(8)},
	}
	r := NewRegistry()
	r.Counter("molcache_kept_total")
	r.Gauge("molcache_kept")
	r.Histogram("molcache_kept_hist", []float64{1, 2})
	r.RegisterCounterFunc("molcache_view_total", func() uint64 { return 7 })
	if err := r.LoadSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	got := r.Snapshot()
	if len(got.Counters) != 2 || got.Counters["molcache_kept_total"] != 4 || got.Counters["molcache_view_total"] != 7 {
		t.Errorf("counters = %v, want the kept counter loaded and the func's own value", got.Counters)
	}
	if len(got.Gauges) != 1 || got.Gauges["molcache_kept"] != 1.5 {
		t.Errorf("gauges = %v", got.Gauges)
	}
	if len(got.Histograms) != 1 || got.Histograms["molcache_kept_hist"].Count != 2 {
		t.Errorf("histograms = %v", got.Histograms)
	}

	bad := Snapshot{Histograms: map[string]HistogramSnapshot{"molcache_kept_hist": hist(1, 4)}}
	if err := r.LoadSnapshot(bad); err == nil || !strings.Contains(err.Error(), "bounds") {
		t.Errorf("mismatched bounds loaded: %v", err)
	}
	malformed := hist(8)
	malformed.Buckets[0].Count = 3 // the cumulative counts decrease
	bad = Snapshot{Histograms: map[string]HistogramSnapshot{"molcache_dropped_hist": malformed}}
	if err := r.LoadSnapshot(bad); err == nil || !strings.Contains(err.Error(), "decrease") {
		t.Errorf("malformed histogram loaded: %v", err)
	}
}
