package telemetry

import (
	"math"
	"reflect"
	"sync"
	"testing"
)

func TestNilRegistryAndInstruments(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", []float64{1, 10})
	r.RegisterGaugeFunc("f", nil) // nil fn would panic on a live registry
	c.Add(5)
	c.Inc()
	g.Set(1.5)
	h.Observe(3)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil instruments accumulated state")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", snap)
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("molcache_hits_total")
	c.Add(3)
	c.Inc()
	if c.Value() != 4 {
		t.Errorf("counter = %d, want 4", c.Value())
	}
	if r.Counter("molcache_hits_total") != c {
		t.Error("second lookup returned a different counter")
	}
	g := r.Gauge("molcache_miss_rate")
	g.Set(0.25)
	if g.Value() != 0.25 {
		t.Errorf("gauge = %v, want 0.25", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 10, 50, 100, 1000} {
		h.Observe(v)
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d, want 7", h.Count())
	}
	if h.Sum() != 1166.5 {
		t.Errorf("sum = %v, want 1166.5", h.Sum())
	}
	snap := r.Snapshot().Histograms["lat"]
	// Cumulative: <=1: 2, <=10: 4, <=100: 6, +Inf: 7.
	wantCum := []uint64{2, 4, 6, 7}
	if len(snap.Buckets) != len(wantCum) {
		t.Fatalf("got %d buckets, want %d", len(snap.Buckets), len(wantCum))
	}
	for i, b := range snap.Buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket %d cumulative = %d, want %d", i, b.Count, wantCum[i])
		}
	}
	if !math.IsInf(snap.Buckets[3].UpperBound, +1) {
		t.Errorf("last bucket bound = %v, want +Inf", snap.Buckets[3].UpperBound)
	}
}

func TestGaugeFuncEvaluatedAtSnapshot(t *testing.T) {
	r := NewRegistry()
	v := 1.0
	r.RegisterGaugeFunc("derived", func() float64 { return v })
	if got := r.Snapshot().Gauges["derived"]; got != 1 {
		t.Errorf("snapshot gauge = %v, want 1", got)
	}
	v = 2
	if got := r.Snapshot().Gauges["derived"]; got != 2 {
		t.Errorf("snapshot gauge = %v, want 2 after update", got)
	}
}

// TestCounterAndHistogramFuncs: func-backed counters and histograms
// read their source at every Snapshot, re-registering a name replaces
// its func, and a func name is as exclusive as an instrument's.
func TestCounterAndHistogramFuncs(t *testing.T) {
	r := NewRegistry()
	var n uint64 = 3
	r.RegisterCounterFunc("views_total", func() uint64 { return n })
	hs := HistogramSnapshot{Count: 1, Sum: 2, Buckets: []Bucket{{2, 1}, {math.Inf(+1), 1}}}
	r.RegisterHistogramFunc("views_hist", func() HistogramSnapshot { return hs })
	if s := r.Snapshot(); s.Counters["views_total"] != 3 || !reflect.DeepEqual(s.Histograms["views_hist"], hs) {
		t.Fatalf("snapshot = %+v", s)
	}
	n = 5
	r.RegisterCounterFunc("views_total", func() uint64 { return 2 * n })
	if got := r.Snapshot().Counters["views_total"]; got != 10 {
		t.Errorf("counter func = %d after re-registration, want 10", got)
	}
	for name, register := range map[string]func(){
		"counter over a counter func": func() { r.Counter("views_total") },
		"gauge func over a histogram func": func() {
			r.RegisterGaugeFunc("views_hist", func() float64 { return 0 })
		},
		"nil counter func": func() { r.RegisterCounterFunc("views_nil_total", nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			register()
		}()
	}
}

func TestNameValidation(t *testing.T) {
	r := NewRegistry()
	for _, ok := range []string{
		"a", "molcache_hits_total", "ns:sub", "x{asid=\"1\"}", "_lead",
	} {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("valid name %q panicked: %v", ok, p)
				}
			}()
			r.Counter(ok)
		}()
	}
	for _, bad := range []string{
		"", "9lead", "has space", "x{unterminated", "{only=\"labels\"}",
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("invalid name %q did not panic", bad)
				}
			}()
			r.Counter(bad)
		}()
	}
}

func TestTypeCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Error("registering a gauge under a counter's name did not panic")
		}
	}()
	r.Gauge("x")
}

func TestConcurrentInstrumentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared_total")
			h := r.Histogram("shared_hist", []float64{10})
			ga := r.Gauge("shared_gauge")
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i % 20))
				ga.Set(1)
			}
		}()
	}
	wg.Wait()
	if v := r.Counter("shared_total").Value(); v != 8000 {
		t.Errorf("counter = %d, want 8000", v)
	}
	if n := r.Histogram("shared_hist", []float64{10}).Count(); n != 8000 {
		t.Errorf("histogram count = %d, want 8000", n)
	}
	if v := r.Gauge("shared_gauge").Value(); v != 1 {
		t.Errorf("gauge = %v, want 1", v)
	}
}

func TestBaseName(t *testing.T) {
	if BaseName(`x{a="1"}`) != "x" || BaseName("plain") != "plain" {
		t.Error("BaseName misparses")
	}
}
