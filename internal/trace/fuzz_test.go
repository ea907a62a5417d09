package trace

import (
	"bytes"
	"io"
	"testing"
)

// encodeSeed builds a small valid binary trace for the fuzz corpus.
func encodeSeed(t testing.TB) []byte {
	refs := []Ref{
		{Addr: 0x1000, ASID: 1, CPU: 0, Kind: Read},
		{Addr: 0x1040, ASID: 1, CPU: 0, Kind: Write},
		{Addr: 0xffff_ffff_0000, ASID: 0xFFFF, CPU: 3, Kind: Read},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range refs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// refsFromBytes derives a record list from raw fuzz input, so the same
// corpus also exercises the encode side.
func refsFromBytes(data []byte) []Ref {
	var refs []Ref
	for i := 0; i+11 < len(data) && len(refs) < 1024; i += 12 {
		refs = append(refs, Ref{
			Addr: uint64(data[i]) | uint64(data[i+1])<<8 | uint64(data[i+2])<<24 |
				uint64(data[i+3])<<40 | uint64(data[i+4])<<56,
			ASID: uint16(data[i+5]) | uint16(data[i+6])<<8,
			CPU:  data[i+7],
			Kind: Kind(data[i+8] & 1),
		})
	}
	return refs
}

// FuzzReader feeds arbitrary bytes to the fixed-record binary reader:
// it must reject or truncate cleanly, never panic, and any byte stream
// produced by the Writer must decode to exactly what was written.
func FuzzReader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("MTR"))
	f.Add([]byte("MTR1"))
	f.Add([]byte("MTR1 truncated record"))
	f.Add([]byte("not a trace at all"))
	f.Add(encodeSeed(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode arbitrary bytes: errors are fine, panics are not.
		if r, err := NewReader(bytes.NewReader(data)); err == nil {
			if _, err := r.ReadAll(); err != nil && err != io.EOF {
				_ = err // truncation errors are expected
			}
		}

		// Round-trip records derived from the same input.
		refs := refsFromBytes(data)
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, r := range refs {
			if err := w.Write(r); err != nil {
				t.Fatalf("Write(%v): %v", r, err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reopen own encoding: %v", err)
		}
		got, err := r.ReadAll()
		if err != nil {
			t.Fatalf("decode own encoding: %v", err)
		}
		if len(got) != len(refs) {
			t.Fatalf("round trip %d records, got %d", len(refs), len(got))
		}
		for i := range refs {
			if got[i] != refs[i] {
				t.Fatalf("record %d: wrote %v, read %v", i, refs[i], got[i])
			}
		}
	})
}
