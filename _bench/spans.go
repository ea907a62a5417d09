package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into a layer: its name, its
// interval relative to the pass start, and the span that caused it
// (-1 for a root).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps a pass's spans in memory; write stores them at exit.
// A nil *spanLog records nothing, so untraced passes pay one comparison
// per call site.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog {
	return &spanLog{t0: time.Now(), spans: make([]span, 0, 1<<14)}
}

// begin opens a span under parent and returns its id.
func (l *spanLog) begin(name string, parent int32) int32 {
	if l == nil {
		return -1
	}
	id := int32(len(l.spans))
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(l.t0)), End: -1})
	return id
}

// end closes span id.
func (l *spanLog) end(id int32) {
	if l == nil || id < 0 {
		return
	}
	l.spans[id].End = int64(time.Since(l.t0))
}

// add records an already-timed interval under parent.
func (l *spanLog) add(name string, parent int32, start, end time.Time) {
	if l == nil {
		return
	}
	id := int32(len(l.spans))
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(l.t0)), End: int64(end.Sub(l.t0))})
}

// write stores the spans as JSON lines at path, creating its directory.
func (l *spanLog) write(path string) error {
	if l == nil || path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
