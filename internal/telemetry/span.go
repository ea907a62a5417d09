package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Span-level tracing of the access pipeline. A SpanTracer records
// begin/end pairs (access -> region lookup -> tag probe -> NoC transit,
// plus solo roots like the resize tick) for a deterministic 1-in-N
// sample of accesses, selected purely by access count so a traced run
// is byte-identical to an untraced one. Timestamps are logical: a
// monotonic counter that ticks once per begin and once per end, never a
// wall clock — the determinism contract molvet enforces on the
// simulation packages extends to everything they observe.
//
// Cost model, mirroring the rest of the telemetry layer:
//
//   - nil *SpanTracer: every method is a no-op; instrumented code pays
//     one pointer check per call site and allocates nothing.
//   - attached, access not sampled: StartAccess does one modulo and
//     returns false; every inner Begin/End sees active == false and
//     returns after a bool load. Still zero allocations.
//   - attached, access sampled: spans append into a pre-bounded buffer;
//     past the limit they are counted as drops, never reallocated.
//
// The tracer is owned by the goroutine that runs the simulation (like a
// Sink); export happens after the run via WriteChromeTrace, whose
// output loads directly in ui.perfetto.dev / chrome://tracing.

// DefaultSpanSample is the 1-in-N access sampling rate when a
// SpanTracer is built with every <= 0.
const DefaultSpanSample = 64

// DefaultSpanLimit bounds the completed-span buffer when a SpanTracer
// is built with limit <= 0 (~10 MB of spans; beyond it spans drop and
// are counted).
const DefaultSpanLimit = 1 << 18

// maxSpanDepth bounds the open-span stack. The access pipeline nests
// three deep; anything past the cap is counted as a drop, not recorded.
const maxSpanDepth = 16

// SpanEvent is one completed span. Start and Dur are in logical ticks
// (one tick per begin and per end), At is the cache-wide access count
// of the enclosing sampled access (or the emitter's own logical time
// for solo spans), Depth the nesting level within that access.
type SpanEvent struct {
	Name  string `json:"name"`
	Start uint64 `json:"start"`
	Dur   uint64 `json:"dur"`
	At    uint64 `json:"at"`
	ASID  uint16 `json:"asid"`
	Depth int    `json:"depth"`
	Value int64  `json:"value,omitempty"`
}

// openSpan is one in-flight begin awaiting its end.
type openSpan struct {
	name  string
	start uint64
}

// SpanTracer records sampled access-pipeline spans. The nil *SpanTracer
// is the valid, disabled tracer. See the file comment for the ownership
// and cost contract.
type SpanTracer struct {
	every uint64
	limit int

	now    uint64 // logical clock: ticks on every recorded begin/end
	active bool   // inside a sampled access (or a solo root)
	solo   bool   // the active root was opened by BeginSolo
	at     uint64
	asid   uint16
	depth  int
	stack  [maxSpanDepth]openSpan

	spans   []SpanEvent
	sampled uint64 // accesses selected by StartAccess
	drops   uint64 // spans lost to the buffer limit or the depth cap
}

// NewSpanTracer builds a tracer sampling one access in every (default
// DefaultSpanSample) with a completed-span buffer of limit entries
// (default DefaultSpanLimit).
func NewSpanTracer(every uint64, limit int) *SpanTracer {
	if every == 0 {
		every = DefaultSpanSample
	}
	if limit <= 0 {
		limit = DefaultSpanLimit
	}
	return &SpanTracer{every: every, limit: limit}
}

// Enabled reports whether the tracer records spans (false for nil).
func (st *SpanTracer) Enabled() bool { return st != nil }

// StartAccess decides, purely from the access count, whether the
// access about to run is sampled; when it is, the tracer activates and
// subsequent Begin/End calls record spans until FinishAccess. Access
// counts start at 1; access 1, 1+N, 1+2N, ... are the sample.
func (st *SpanTracer) StartAccess(at uint64, asid uint16) bool {
	if st == nil || (at-1)%st.every != 0 {
		return false
	}
	st.active = true
	st.solo = false
	st.at = at
	st.asid = asid
	st.depth = 0
	st.sampled++
	return true
}

// FinishAccess deactivates the tracer after a sampled access. Any span
// left open (an instrumentation bug) is discarded and counted as a
// drop rather than corrupting the next sample's nesting.
func (st *SpanTracer) FinishAccess() {
	if st == nil {
		return
	}
	st.drops += uint64(st.depth)
	st.active = false
	st.depth = 0
}

// Begin opens a span. A no-op unless the tracer is inside a sampled
// access (or a solo root), which is what keeps unsampled accesses at
// zero cost beyond one bool load per instrumentation site.
func (st *SpanTracer) Begin(name string) {
	if st == nil || !st.active {
		return
	}
	if st.depth >= maxSpanDepth {
		st.depth++ // keep Begin/End pairing; End counts the drop
		return
	}
	st.now++
	st.stack[st.depth] = openSpan{name: name, start: st.now}
	st.depth++
}

// End closes the innermost open span.
func (st *SpanTracer) End() { st.end(0) }

// EndValue closes the innermost open span, attaching a kind-specific
// quantity (tag probes for a probe span, cycles for a NoC transit).
func (st *SpanTracer) EndValue(v int64) { st.end(v) }

func (st *SpanTracer) end(v int64) {
	if st == nil || !st.active || st.depth == 0 {
		return
	}
	st.depth--
	if st.depth >= maxSpanDepth {
		st.drops++
		return
	}
	sp := st.stack[st.depth]
	st.now++
	if len(st.spans) >= st.limit {
		st.drops++
		return
	}
	st.spans = append(st.spans, SpanEvent{
		Name:  sp.name,
		Start: sp.start,
		Dur:   st.now - sp.start,
		At:    st.at,
		ASID:  st.asid,
		Depth: st.depth,
		Value: v,
	})
}

// BeginSolo opens a root span outside any sampled access — the resize
// tick's hook. Solo roots are always recorded (they are rare by
// construction: one per resize pass). When the tracer is already
// active the span simply nests inside the current access.
func (st *SpanTracer) BeginSolo(name string, at uint64, asid uint16) {
	if st == nil {
		return
	}
	if !st.active {
		st.active = true
		st.solo = true
		st.at = at
		st.asid = asid
		st.depth = 0
	}
	//molvet:ignore telemetry-names BeginSolo forwards its caller's name to Begin; the name is checked at BeginSolo call sites
	st.Begin(name)
}

// EndSolo closes a BeginSolo span, deactivating the tracer if the solo
// span was the root.
func (st *SpanTracer) EndSolo() {
	if st == nil || !st.active {
		return
	}
	st.End()
	if st.solo && st.depth == 0 {
		st.active = false
		st.solo = false
	}
}

// Spans returns a copy of the recorded spans, in completion order.
func (st *SpanTracer) Spans() []SpanEvent {
	if st == nil {
		return nil
	}
	return append([]SpanEvent(nil), st.spans...)
}

// Len returns the number of recorded spans.
func (st *SpanTracer) Len() int {
	if st == nil {
		return 0
	}
	return len(st.spans)
}

// SampledAccesses returns how many accesses StartAccess selected.
func (st *SpanTracer) SampledAccesses() uint64 {
	if st == nil {
		return 0
	}
	return st.sampled
}

// Drops returns the spans lost to the buffer limit or the depth cap.
func (st *SpanTracer) Drops() uint64 {
	if st == nil {
		return 0
	}
	return st.drops
}

// chromeEvent is one Chrome trace-event ("X" complete event, or "M"
// metadata). Logical ticks map 1:1 onto the format's microseconds.
type chromeEvent struct {
	Name string      `json:"name"`
	Ph   string      `json:"ph"`
	TS   uint64      `json:"ts"`
	Dur  uint64      `json:"dur,omitempty"`
	PID  int         `json:"pid"`
	TID  int         `json:"tid"`
	Args *chromeArgs `json:"args,omitempty"`
}

// chromeArgs carries the span payload (a struct, not a map, so the
// emitted JSON field order is fixed).
type chromeArgs struct {
	At    uint64 `json:"at,omitempty"`
	Value int64  `json:"value,omitempty"`
	Name  string `json:"name,omitempty"` // metadata events only
}

// chromeTrace is the top-level Chrome trace-event JSON object.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace writes every recorded span as Chrome trace-event
// JSON ("X" complete events; one thread track per ASID), loadable in
// ui.perfetto.dev or chrome://tracing. Output is deterministic: spans
// sort by logical start time, tracks by ASID.
func (st *SpanTracer) WriteChromeTrace(w io.Writer) error {
	trace := chromeTrace{DisplayTimeUnit: "ms"}
	if st != nil {
		spans := append([]SpanEvent(nil), st.spans...)
		sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })

		seen := map[uint16]bool{}
		var asids []uint16
		for _, sp := range spans {
			if !seen[sp.ASID] {
				seen[sp.ASID] = true
				asids = append(asids, sp.ASID)
			}
		}
		sort.Slice(asids, func(i, j int) bool { return asids[i] < asids[j] })

		trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", PID: 1,
			Args: &chromeArgs{Name: "molcache"},
		})
		for _, asid := range asids {
			trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", PID: 1, TID: int(asid) + 1,
				Args: &chromeArgs{Name: fmt.Sprintf("asid %d", asid)},
			})
		}
		for _, sp := range spans {
			ev := chromeEvent{
				Name: sp.Name, Ph: "X",
				TS: sp.Start, Dur: sp.Dur,
				PID: 1, TID: int(sp.ASID) + 1,
			}
			if sp.At != 0 || sp.Value != 0 {
				ev.Args = &chromeArgs{At: sp.At, Value: sp.Value}
			}
			trace.TraceEvents = append(trace.TraceEvents, ev)
		}
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(trace); err != nil {
		return err
	}
	return bw.Flush()
}
