// Package telemetry is the observability layer of the repository: a
// zero-dependency structured event tracer, a registry of live metrics
// (atomic counters, gauges and histograms with Prometheus-text and JSON
// exporters), and profiling hooks for the commands.
//
// The paper's whole argument rests on runtime-observed behavior — the
// per-region miss rates that drive Algorithm 1, the per-molecule probe
// counts that feed the power model — so the simulation stack emits what
// it observes through this package: every cache access outcome, every
// region create/grow/shrink/rebalance, every resize decision, every
// fault the cache absorbs.
//
// Design constraints, in order:
//
//  1. Disabled must be almost free. Every instrumented package holds a
//     nil *Tracer / nil instrument pointers by default and pays one
//     pointer check per access on the hot path. All Tracer, Counter,
//     Gauge and Histogram methods are nil-safe no-ops, so instrumented
//     code never branches on configuration.
//  2. Enabled must be cheap. Events go into a fixed-size ring buffer
//     (no allocation beyond the optional Detail string); metrics are
//     lock-free atomics safe for concurrent use.
//  3. No dependencies. Everything here is standard library only, like
//     the rest of the repository.
//
// Sinks make the ring durable: a JSONL sink streams every event to an
// io.Writer, a memory sink collects them for tests. See export.go for
// the registry's snapshot formats and profile.go for the -cpuprofile /
// -memprofile / -trace command hooks.
package telemetry

import (
	"fmt"
	"sync"
)

// Kind classifies a traced event.
type Kind uint8

// The event kinds emitted by the simulation stack.
const (
	// KindAccess is one cache access outcome (hit/miss, probes,
	// writebacks; Remote marks a sibling-tile hit via the Ulmo).
	KindAccess Kind = iota
	// KindRegionCreate is a region's "Ground Zero" creation; Value is
	// the initial molecule count.
	KindRegionCreate
	// KindRegionGrow is a molecule allocation; Value is the delta
	// obtained, Aux the size after.
	KindRegionGrow
	// KindRegionShrink is a molecule withdrawal; Value is the (negative)
	// delta, Aux the size after.
	KindRegionShrink
	// KindRegionRebalance is a row-to-row molecule move.
	KindRegionRebalance
	// KindResize is one resize-controller decision; Detail carries the
	// action name, Value the signed molecule delta, Aux the size after.
	KindResize
	// KindInvalidate is a back-invalidation of an upper level's copy:
	// a retired molecule emits one per resident line, with the owning
	// region's ASID and the line's address.
	KindInvalidate
	// KindMoleculeRetire is a hard molecule failure: the molecule was
	// flushed, withdrawn from its region and permanently retired. Value
	// is the molecule ID, Aux the owning region's size after.
	KindMoleculeRetire
	// KindLineCorrupt is a transient line corruption (the line was
	// dropped); Value is the molecule ID, Aux is 1 when the lost copy
	// was dirty (silent data loss).
	KindLineCorrupt
	// KindNoCFault is a degraded remote lookup: Value is the retry
	// count paid, Aux is 1 when the lookup was abandoned entirely.
	KindNoCFault
	// KindJobStart marks a runner job leaving the queue for a worker.
	// Detail is the job label, Value the submission index.
	KindJobStart
	// KindJobDone marks a runner job finishing. Detail is the job label,
	// Value the submission index, Aux the wall-clock microseconds spent,
	// and Hit reports success (false = error or panic).
	KindJobDone
)

// kindLast is the highest defined kind (keeps UnmarshalJSON exhaustive).
const kindLast = KindJobDone

// String names the kind for logs and JSON.
func (k Kind) String() string {
	switch k {
	case KindAccess:
		return "access"
	case KindRegionCreate:
		return "region-create"
	case KindRegionGrow:
		return "region-grow"
	case KindRegionShrink:
		return "region-shrink"
	case KindRegionRebalance:
		return "region-rebalance"
	case KindResize:
		return "resize"
	case KindInvalidate:
		return "invalidate"
	case KindMoleculeRetire:
		return "molecule-retire"
	case KindLineCorrupt:
		return "line-corrupt"
	case KindNoCFault:
		return "noc-fault"
	case KindJobStart:
		return "job-start"
	case KindJobDone:
		return "job-done"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// MarshalJSON renders the kind as its string name.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON accepts the string names produced by MarshalJSON.
func (k *Kind) UnmarshalJSON(b []byte) error {
	s := string(b)
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		s = s[1 : len(s)-1]
	}
	for c := KindAccess; c <= kindLast; c++ {
		if c.String() == s {
			*k = c
			return nil
		}
	}
	return fmt.Errorf("telemetry: unknown event kind %q", s)
}

// Event is one structured trace record. The fixed fields keep the hot
// path allocation-free; Value, Aux and Detail carry kind-specific
// payloads (documented on the Kind constants).
type Event struct {
	// Seq is the tracer-assigned monotonic sequence number (from 1).
	Seq uint64 `json:"seq"`
	// At is the emitter's logical time — for cache events, the
	// cache-wide count of addresses serviced.
	At uint64 `json:"at"`
	// Kind classifies the event.
	Kind Kind `json:"kind"`
	// ASID identifies the application, when one is involved.
	ASID uint16 `json:"asid"`
	// Addr is the referenced address (access and invalidate events).
	Addr uint64 `json:"addr,omitempty"`
	// Hit and Remote qualify access events.
	Hit    bool `json:"hit,omitempty"`
	Remote bool `json:"remote,omitempty"`
	// Value and Aux are kind-specific quantities.
	Value int64 `json:"value,omitempty"`
	Aux   int64 `json:"aux,omitempty"`
	// Detail is a kind-specific label (e.g. the resize action name).
	Detail string `json:"detail,omitempty"`
}

// DefaultRingSize is the tracer's event ring capacity when NewTracer is
// given a non-positive size.
const DefaultRingSize = 4096

// Tracer collects structured events into a fixed-size ring and
// optionally forwards each one to a Sink. A nil *Tracer is the valid,
// disabled tracer: every method is a no-op, so instrumented code holds
// a nil pointer by default and pays one comparison when tracing is off.
type Tracer struct {
	mu      sync.Mutex
	seq     uint64
	ring    []Event
	sink    Sink
	sinkErr error
}

// NewTracer builds a tracer with the given ring capacity
// (DefaultRingSize when ringSize <= 0).
func NewTracer(ringSize int) *Tracer {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	return &Tracer{ring: make([]Event, 0, ringSize)}
}

// SetSink attaches a sink that receives every subsequent event
// synchronously. A nil sink detaches.
func (t *Tracer) SetSink(s Sink) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sink = s
}

// Emit records one event, stamping its sequence number.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	e.Seq = t.seq
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, e)
	} else {
		t.ring[int((t.seq-1)%uint64(cap(t.ring)))] = e
	}
	if t.sink != nil {
		if err := t.sink.Write(e); err != nil && t.sinkErr == nil {
			t.sinkErr = err
		}
	}
}

// Access emits a KindAccess event (the hot-path helper: the Event is
// only constructed after the nil check).
func (t *Tracer) Access(at uint64, asid uint16, addr uint64, hit, remote bool, probes, writebacks int) {
	if t == nil {
		return
	}
	t.Emit(Event{
		At: at, Kind: KindAccess, ASID: asid, Addr: addr,
		Hit: hit, Remote: remote,
		Value: int64(probes), Aux: int64(writebacks),
	})
}

// Region emits a region-lifecycle event (create/grow/shrink/rebalance),
// with delta and the size after.
func (t *Tracer) Region(kind Kind, at uint64, asid uint16, delta, size int) {
	if t == nil {
		return
	}
	t.Emit(Event{At: at, Kind: kind, ASID: asid, Value: int64(delta), Aux: int64(size)})
}

// Resize emits a KindResize controller-decision event.
func (t *Tracer) Resize(at uint64, asid uint16, action string, delta, size int) {
	if t == nil {
		return
	}
	t.Emit(Event{At: at, Kind: KindResize, ASID: asid, Detail: action,
		Value: int64(delta), Aux: int64(size)})
}

// Emitted returns the total number of events recorded (including those
// that have rotated out of the ring).
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// Events returns the ring contents, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.ring))
	if len(t.ring) < cap(t.ring) || t.seq == 0 {
		return append(out, t.ring...)
	}
	// Full ring: the oldest entry sits just past the most recent write.
	start := int(t.seq % uint64(cap(t.ring)))
	out = append(out, t.ring[start:]...)
	out = append(out, t.ring[:start]...)
	return out
}

// Flush flushes the sink (if any) and returns the first sink write
// error encountered since the last Flush.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	err := t.sinkErr
	t.sinkErr = nil
	if t.sink != nil {
		if ferr := t.sink.Flush(); err == nil {
			err = ferr
		}
	}
	return err
}
