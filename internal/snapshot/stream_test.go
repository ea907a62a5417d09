package snapshot

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	frames := [][]Section{
		{{Name: "config", Payload: []byte(`{"a":1}`)}},
		{{Name: "batch", Payload: []byte("refs")}, {Name: "extra", Payload: nil}},
		{{Name: "tenant", Payload: bytes.Repeat([]byte{0xAB}, 1000)}},
	}
	for _, f := range frames {
		if err := fw.WriteFrame(f); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	fr := NewFrameReader(bytes.NewReader(buf.Bytes()))
	for i, want := range frames {
		got, err := fr.ReadFrame()
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if len(got) != len(want) {
			t.Fatalf("frame %d: %d sections, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j].Name != want[j].Name || !bytes.Equal(got[j].Payload, want[j].Payload) {
				t.Errorf("frame %d section %d mismatch", i, j)
			}
		}
	}
	if _, err := fr.ReadFrame(); err != io.EOF {
		t.Fatalf("clean end: got %v, want io.EOF", err)
	}
}

func TestFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	if err := fw.WriteFrame([]Section{{Name: "batch", Payload: []byte("payload-bytes")}}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{1, 3, 4, 5, len(full) - 1} {
		fr := NewFrameReader(bytes.NewReader(full[:cut]))
		_, err := fr.ReadFrame()
		var se *Error
		if !errors.As(err, &se) {
			t.Errorf("cut at %d: got %v, want typed *Error", cut, err)
		}
	}
}

func TestFrameOversizedLength(t *testing.T) {
	raw := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	fr := NewFrameReader(bytes.NewReader(raw))
	_, err := fr.ReadFrame()
	var se *Error
	if !errors.As(err, &se) || se.Section != "frame" {
		t.Fatalf("oversized length: got %v, want frame *Error", err)
	}
}

func TestFrameCorruptContainer(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	if err := fw.WriteFrame([]Section{{Name: "batch", Payload: []byte("payload")}}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 0xFF // flip a payload byte under the section CRC
	fr := NewFrameReader(bytes.NewReader(raw))
	_, err := fr.ReadFrame()
	var se *Error
	if !errors.As(err, &se) {
		t.Fatalf("corrupt container: got %v, want typed *Error", err)
	}
}

// TestFrameWriterReusesBuffer: a frame written after a larger one must
// carry none of the larger frame's bytes, and a steady stream of small
// frames allocates nothing.
func TestFrameWriterReusesBuffer(t *testing.T) {
	var got, want bytes.Buffer
	fw := NewFrameWriter(&got)
	frames := [][]Section{
		{{Name: "a-long-name-16by", Payload: bytes.Repeat([]byte{0xEE}, 300)}, {Name: "two", Payload: []byte{1}}},
		{{Name: "b", Payload: []byte("x")}},
	}
	for _, f := range frames {
		if err := fw.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
		data, err := Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		want.Write([]byte{byte(len(data)), byte(len(data) >> 8), 0, 0})
		want.Write(data)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("frames written through a reused buffer differ from Encode's bytes")
	}

	fw = NewFrameWriter(io.Discard)
	payload := bytes.Repeat([]byte{1}, 24)
	if allocs := testing.AllocsPerRun(100, func() {
		if err := fw.WriteFrame([]Section{{Name: "batch2", Payload: payload}}); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("WriteFrame: %v allocations per frame, want 0", allocs)
	}
}
