package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{Kind: KindAccess})
	tr.Access(1, 2, 3, true, false, 4, 0)
	tr.Region(KindRegionGrow, 1, 2, 3, 4)
	tr.Resize(1, 2, "grow-chunk", 3, 4)
	tr.SetSink(NewMemorySink())
	if got := tr.Events(); got != nil {
		t.Errorf("nil tracer Events() = %v, want nil", got)
	}
	if tr.Emitted() != 0 {
		t.Errorf("nil tracer Emitted() = %d", tr.Emitted())
	}
	if err := tr.Flush(); err != nil {
		t.Errorf("nil tracer Flush() = %v", err)
	}
}

func TestTracerSequencesEvents(t *testing.T) {
	tr := NewTracer(16)
	tr.Access(10, 1, 0x40, false, false, 3, 1)
	tr.Resize(20, 1, "grow-linear", 4, 36)
	tr.Region(KindRegionShrink, 30, 2, -2, 30)
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Errorf("event %d has seq %d", i, e.Seq)
		}
	}
	if evs[0].Kind != KindAccess || evs[0].Value != 3 || evs[0].Aux != 1 {
		t.Errorf("access event mangled: %+v", evs[0])
	}
	if evs[1].Detail != "grow-linear" || evs[1].Kind != KindResize {
		t.Errorf("resize event mangled: %+v", evs[1])
	}
	if evs[2].Value != -2 || evs[2].ASID != 2 {
		t.Errorf("shrink event mangled: %+v", evs[2])
	}
}

func TestTracerRingWraps(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{At: uint64(i)})
	}
	if tr.Emitted() != 10 {
		t.Fatalf("Emitted() = %d, want 10", tr.Emitted())
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	// Oldest-first: the last four emissions are At 6..9, Seq 7..10.
	for i, e := range evs {
		if e.At != uint64(6+i) || e.Seq != uint64(7+i) {
			t.Errorf("ring[%d] = {At:%d Seq:%d}, want {At:%d Seq:%d}",
				i, e.At, e.Seq, 6+i, 7+i)
		}
	}
}

func TestTracerDefaultRingSize(t *testing.T) {
	tr := NewTracer(0)
	if cap(tr.ring) != DefaultRingSize {
		t.Errorf("default ring capacity = %d, want %d", cap(tr.ring), DefaultRingSize)
	}
}

func TestMemorySinkReceivesEverything(t *testing.T) {
	tr := NewTracer(2) // ring smaller than the stream: sink must still see all
	sink := NewMemorySink()
	tr.SetSink(sink)
	for i := 0; i < 8; i++ {
		tr.Access(uint64(i), 1, 0, i%2 == 0, false, 1, 0)
	}
	if sink.Len() != 8 {
		t.Fatalf("sink saw %d events, want 8", sink.Len())
	}
	evs := sink.Events()
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Errorf("sink event %d out of order: seq %d", i, e.Seq)
		}
	}
}

func TestJSONLSinkRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(0)
	tr.SetSink(NewJSONLSink(&buf))
	tr.Access(5, 3, 0x1000, true, true, 7, 0)
	tr.Resize(6, 3, "shrink", -2, 12)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var got []Event
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		got = append(got, e)
	}
	if len(got) != 2 {
		t.Fatalf("decoded %d events, want 2", len(got))
	}
	want := tr.Events()
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("event %d: decoded %+v != emitted %+v", i, got[i], want[i])
		}
	}
}

func TestKindJSONNames(t *testing.T) {
	for k := KindAccess; k <= kindLast; k++ {
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(b), "kind(") {
			t.Errorf("kind %d has no name", k)
		}
		var back Kind
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("kind %v does not round-trip: %v", k, err)
		}
		if back != k {
			t.Errorf("kind %v round-tripped to %v", k, back)
		}
	}
	var k Kind
	if err := json.Unmarshal([]byte(`"no-such-kind"`), &k); err == nil {
		t.Error("unknown kind name unmarshalled without error")
	}
}

func TestTracerConcurrentEmit(t *testing.T) {
	tr := NewTracer(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.Access(uint64(i), 1, 0, false, false, 1, 0)
			}
		}()
	}
	wg.Wait()
	if tr.Emitted() != 8000 {
		t.Errorf("Emitted() = %d, want 8000", tr.Emitted())
	}
	if n := len(tr.Events()); n != 128 {
		t.Errorf("ring holds %d, want 128", n)
	}
}

// errorSink fails every write, to exercise sink-error reporting.
type errorSink struct{ n int }

func (s *errorSink) Write(Event) error { s.n++; return errSink }
func (s *errorSink) Flush() error      { return nil }

var errSink = errors.New("sink down")

func TestSinkErrorSurfacesOnFlush(t *testing.T) {
	tr := NewTracer(0)
	tr.SetSink(&errorSink{})
	tr.Emit(Event{})
	if err := tr.Flush(); err == nil {
		t.Error("Flush() lost the sink error")
	}
	if err := tr.Flush(); err != nil {
		t.Errorf("second Flush() still errors: %v", err)
	}
}
