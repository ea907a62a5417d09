package telemetry

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The nil *Counter is a
// valid no-op, so instrumented code can hold unregistered counters.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float64 metric. The nil *Gauge is a valid no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bound distribution metric: observations land in
// the first bucket whose upper bound is >= the value, with an implicit
// +Inf bucket at the end. The nil *Histogram is a valid no-op.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not strictly increasing at %d: %v", i, bounds))
		}
	}
	return &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Registry is a namespace of live metrics. Lookups are idempotent:
// asking for an existing name returns the same instrument, so several
// components may share a counter. A nil *Registry is the valid,
// disabled registry — every lookup returns the nil instrument, whose
// methods are no-ops — which is how instrumented packages run with
// metrics off at the cost of one pointer check at attach time.
//
// Beside the instruments that hold their own counts, a registry holds
// funcs evaluated at snapshot time: views over state their caller
// already keeps, which cost nothing per access.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	gaugeFns   map[string]func() float64
	counterFns map[string]func() uint64
	histFns    map[string]func() HistogramSnapshot
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		hists:      make(map[string]*Histogram),
		gaugeFns:   make(map[string]func() float64),
		counterFns: make(map[string]func() uint64),
		histFns:    make(map[string]func() HistogramSnapshot),
	}
}

// validName enforces the Prometheus data model loosely: a bare metric
// name of [a-zA-Z_:][a-zA-Z0-9_:]*, optionally followed by one {...}
// label block (which the exporters pass through verbatim).
func validName(name string) error {
	base := name
	if i := indexByte(name, '{'); i >= 0 {
		if name[len(name)-1] != '}' || i == 0 {
			return fmt.Errorf("telemetry: malformed label block in metric name %q", name)
		}
		base = name[:i]
	}
	if base == "" {
		return fmt.Errorf("telemetry: empty metric name")
	}
	for i := 0; i < len(base); i++ {
		c := base[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return fmt.Errorf("telemetry: metric name %q starts with a digit", name)
			}
		default:
			return fmt.Errorf("telemetry: invalid character %q in metric name %q", c, name)
		}
	}
	return nil
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

// BaseName strips the label block from a metric name ("x{a=\"1\"}" -> "x").
func BaseName(name string) string {
	if i := indexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// Counter returns (creating if needed) the named counter. Nil registry
// returns the nil no-op counter. Panics on a malformed name or a name
// already registered as a different instrument type.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if err := validName(name); err != nil {
		panic(err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkFreeLocked(name, "counter")
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns (creating if needed) the named gauge. Nil registry
// returns the nil no-op gauge. Panics on a malformed name or a name
// already registered as a different instrument type.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	if err := validName(name); err != nil {
		panic(err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkFreeLocked(name, "gauge")
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns (creating if needed) the named histogram with the
// given bucket upper bounds (ignored if the histogram already exists).
// Panics on a malformed name or a name already registered as a
// different instrument type.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if err := validName(name); err != nil {
		panic(err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.checkFreeLocked(name, "histogram")
	h := newHistogram(bounds)
	r.hists[name] = h
	return h
}

// RegisterGaugeFunc registers a gauge whose value is computed by fn at
// snapshot time — the zero-hot-path-cost way to export derived values
// like per-ASID miss rates. Re-registering a name replaces its fn.
// Panics on a malformed name, a nil fn, or a name already registered
// as a different instrument type.
func (r *Registry) RegisterGaugeFunc(name string, fn func() float64) {
	if r != nil {
		registerFunc(r, r.gaugeFns, name, "gauge func", fn, fn == nil)
	}
}

// RegisterCounterFunc registers a counter whose value fn reads at
// snapshot time from a count the caller already keeps, so the count is
// kept once and the access path writes no copy of it. fn must never
// decrease. Re-registering a name replaces its fn. Panics like
// RegisterGaugeFunc.
func (r *Registry) RegisterCounterFunc(name string, fn func() uint64) {
	if r != nil {
		registerFunc(r, r.counterFns, name, "counter func", fn, fn == nil)
	}
}

// RegisterHistogramFunc registers a histogram whose cumulative buckets,
// count and sum fn builds at snapshot time from a distribution the
// caller already keeps. Re-registering a name replaces its fn. Panics
// like RegisterGaugeFunc.
func (r *Registry) RegisterHistogramFunc(name string, fn func() HistogramSnapshot) {
	if r != nil {
		registerFunc(r, r.histFns, name, "histogram func", fn, fn == nil)
	}
}

// registerFunc binds name to fn in fns, one of the registry's func
// maps, replacing an earlier fn of the same kind. It panics on a
// malformed name, a nil fn (isNil) or a name bound to another kind.
func registerFunc[F any](r *Registry, fns map[string]F, name, as string, fn F, isNil bool) {
	if err := validName(name); err != nil {
		panic(err)
	}
	if isNil {
		panic("telemetry: nil " + as + " for " + name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := fns[name]; !ok {
		r.checkFreeLocked(name, as)
	}
	fns[name] = fn
}

// checkFreeLocked panics if name is already bound to another type.
func (r *Registry) checkFreeLocked(name, as string) {
	var kind string
	switch {
	case r.counters[name] != nil:
		kind = "counter"
	case r.gauges[name] != nil:
		kind = "gauge"
	case r.hists[name] != nil:
		kind = "histogram"
	case r.gaugeFns[name] != nil:
		kind = "gauge func"
	case r.counterFns[name] != nil:
		kind = "counter func"
	case r.histFns[name] != nil:
		kind = "histogram func"
	default:
		return
	}
	panic(fmt.Sprintf("telemetry: %q already registered as %s, wanted %s", name, kind, as))
}
