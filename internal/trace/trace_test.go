package trace

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sampleRefs() []Ref {
	return []Ref{
		{Addr: 0x1000, ASID: 1, CPU: 0, Kind: Read},
		{Addr: 0xdeadbeef, ASID: 2, CPU: 1, Kind: Write},
		{Addr: 0xffffffffffffffc0, ASID: 65535, CPU: 255, Kind: Read},
		{Addr: 0, ASID: 0, CPU: 0, Kind: Write},
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	refs := sampleRefs()
	for _, r := range refs {
		if err := w.Write(r); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if w.Count() != uint64(len(refs)) {
		t.Errorf("Count = %d, want %d", w.Count(), len(refs))
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if !reflect.DeepEqual(got, refs) {
		t.Errorf("round trip mismatch:\ngot  %v\nwant %v", got, refs)
	}
}

func TestEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatalf("NewReader on empty trace: %v", err)
	}
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("Read on empty trace = %v, want io.EOF", err)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(strings.NewReader("not a trace")); err != ErrBadMagic {
		t.Errorf("NewReader = %v, want ErrBadMagic", err)
	}
	if _, err := NewReader(strings.NewReader("")); err != ErrBadMagic {
		t.Errorf("NewReader on empty input = %v, want ErrBadMagic", err)
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(Ref{Addr: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-3] // chop the final record
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err == nil || err == io.EOF {
		t.Errorf("Read on truncated record = %v, want a truncation error", err)
	}
}

// TestUnknownKindRejected: a kind byte other than Read (0) or Write (1)
// is an error naming the record, not a silent read.
func TestUnknownKindRejected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range sampleRefs() {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(magic)+1*recordSize+11] = 2 // record 1's kind byte
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err != nil {
		t.Fatalf("record 0: %v", err)
	}
	_, err = r.Read()
	if err == nil || !strings.Contains(err.Error(), "record 1") || !strings.Contains(err.Error(), "kind byte 2") {
		t.Errorf("Read of record 1 = %v, want an unknown-kind error naming record 1", err)
	}
}

// TestWriteTextFormat pins the dump format tracegen -dump prints.
func TestWriteTextFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteText(&buf, sampleRefs()); err != nil {
		t.Fatal(err)
	}
	want := "R 1 0 0x1000\n" +
		"W 2 1 0xdeadbeef\n" +
		"R 65535 255 0xffffffffffffffc0\n" +
		"W 0 0 0x0\n"
	if got := buf.String(); got != want {
		t.Errorf("WriteText =\n%s\nwant\n%s", got, want)
	}
}

func TestInterleaveRoundRobin(t *testing.T) {
	a := []Ref{{Addr: 1}, {Addr: 2}, {Addr: 3}}
	b := []Ref{{Addr: 10}}
	c := []Ref{{Addr: 100}, {Addr: 200}}
	got := Interleave(a, b, c)
	wantAddrs := []uint64{1, 10, 100, 2, 200, 3}
	if len(got) != len(wantAddrs) {
		t.Fatalf("len = %d, want %d", len(got), len(wantAddrs))
	}
	for i, w := range wantAddrs {
		if got[i].Addr != w {
			t.Errorf("pos %d: addr %d, want %d", i, got[i].Addr, w)
		}
	}
}

func TestInterleaveEmpty(t *testing.T) {
	if got := Interleave(); len(got) != 0 {
		t.Errorf("Interleave() = %v", got)
	}
	if got := Interleave(nil, nil); len(got) != 0 {
		t.Errorf("Interleave(nil,nil) = %v", got)
	}
}

// Property: binary round trip preserves any record exactly.
func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(addr uint64, asid uint16, cpu uint8, kindBit bool) bool {
		ref := Ref{Addr: addr, ASID: asid, CPU: cpu, Kind: Read}
		if kindBit {
			ref.Kind = Write
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.Write(ref); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		got, err := r.Read()
		return err == nil && got == ref
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Interleave preserves per-stream order and total length.
func TestInterleavePreservesOrderProperty(t *testing.T) {
	f := func(lens [3]uint8) bool {
		var streams [][]Ref
		for si, n := range lens {
			n := int(n % 20)
			s := make([]Ref, n)
			for i := range s {
				s[i] = Ref{ASID: uint16(si), Addr: uint64(i)}
			}
			streams = append(streams, s)
		}
		merged := Interleave(streams...)
		total := 0
		next := make([]uint64, 3)
		for _, r := range merged {
			if r.Addr != next[r.ASID] {
				return false
			}
			next[r.ASID]++
			total++
		}
		want := 0
		for _, s := range streams {
			want += len(s)
		}
		return total == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
