package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sample() []Section {
	return []Section{
		{Name: "config", Payload: []byte(`{"total_size":524288}`)},
		{Name: "cache", Payload: bytes.Repeat([]byte{0xAB, 0x00, 0x7F}, 333)},
		{Name: "empty", Payload: nil},
		{Name: "telemetry", Payload: []byte("counters")},
	}
}

func TestRoundTrip(t *testing.T) {
	want := sample()
	data, err := Encode(want)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d sections, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name {
			t.Errorf("section %d name %q, want %q", i, got[i].Name, want[i].Name)
		}
		if !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Errorf("section %q payload mismatch", want[i].Name)
		}
	}
	if _, err := Find(got, "cache"); err != nil {
		t.Errorf("Find(cache): %v", err)
	}
	if _, err := Find(got, "absent"); err == nil {
		t.Errorf("Find(absent) succeeded")
	}
}

func TestEncodeRejectsBadSections(t *testing.T) {
	cases := [][]Section{
		{{Name: ""}},
		{{Name: strings.Repeat("x", 17)}},
		{{Name: "a\x00b"}},
		{{Name: "dup"}, {Name: "dup"}},
	}
	for i, sections := range cases {
		if _, err := Encode(sections); err == nil {
			t.Errorf("case %d: Encode accepted bad sections", i)
		}
	}
}

// TestDecodeCorruption drives the decoder through every corruption
// class the restore path must survive: truncation at each boundary,
// magic/version skew, table damage, offset lies and payload bit flips.
// Every case must produce a typed *Error naming a sensible section.
func TestDecodeCorruption(t *testing.T) {
	valid, err := Encode(sample())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	mut := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), valid...))
	}
	cases := []struct {
		name    string
		data    []byte
		section string
	}{
		{"empty", nil, "header"},
		{"short-header", valid[:7], "header"},
		{"bad-magic", mut(func(b []byte) []byte { b[0] = 'X'; return b }), "header"},
		{"version-skew", mut(func(b []byte) []byte { b[5] = 99; return b }), "header"},
		{"truncated-table", valid[:headerLen+10], "section-table"},
		{"count-overflow", mut(func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[6:], 0xFFFF)
			return b
		}), "section-table"},
		{"table-bit-flip", mut(func(b []byte) []byte { b[headerLen+3] ^= 0x40; return b }), "section-table"},
		{"header-crc-flip", mut(func(b []byte) []byte { b[8] ^= 0x01; return b }), "section-table"},
		{"truncated-payload", valid[:len(valid)-1], ""},
		{"payload-bit-flip", mut(func(b []byte) []byte { b[len(b)-1] ^= 0x80; return b }), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(tc.data)
			if err == nil {
				t.Fatalf("Decode accepted corrupted input")
			}
			var se *Error
			if !errors.As(err, &se) {
				t.Fatalf("error %v is not a *snapshot.Error", err)
			}
			if tc.section != "" && se.Section != tc.section {
				t.Errorf("error names section %q, want %q (%v)", se.Section, tc.section, err)
			}
		})
	}
}

// TestDecodeOffsetLies rewrites table entries to point outside the file
// or into the table, recomputing the table CRC so only the offset check
// can reject them.
func TestDecodeOffsetLies(t *testing.T) {
	valid, err := Encode(sample())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	count := int(binary.LittleEndian.Uint16(valid[6:]))
	tableEnd := headerLen + count*entryLen
	fixup := func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[8:], crc32.ChecksumIEEE(b[headerLen:tableEnd]))
		return b
	}
	cases := []struct {
		name string
		edit func(entry []byte)
	}{
		{"offset-into-table", func(e []byte) { binary.LittleEndian.PutUint64(e[nameLen:], 0) }},
		{"offset-past-eof", func(e []byte) {
			binary.LittleEndian.PutUint64(e[nameLen:], uint64(len(valid)+100))
		}},
		{"length-overflow", func(e []byte) {
			binary.LittleEndian.PutUint64(e[nameLen+8:], ^uint64(0)-8)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := append([]byte(nil), valid...)
			tc.edit(b[headerLen:])
			fixup(b)
			_, err := Decode(b)
			if err == nil {
				t.Fatalf("Decode accepted a lying table entry")
			}
			var se *Error
			if !errors.As(err, &se) {
				t.Fatalf("error %v is not a *snapshot.Error", err)
			}
		})
	}
}

// TestWriteReadFile lands encoded containers with WriteRaw, a second
// one over the first, and decodes what the file then holds.
func TestWriteReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.molc1")
	write := func(sections []Section) {
		t.Helper()
		data, err := Encode(sections)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		if err := WriteRaw(path, data); err != nil {
			t.Fatalf("WriteRaw: %v", err)
		}
	}
	read := func() []Section {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		return got
	}
	want := sample()
	write(want)
	if got := read(); len(got) != len(want) {
		t.Fatalf("read back %d sections, want %d", len(got), len(want))
	}
	// Overwrite must go through the same atomic path.
	write(want[:1])
	if got := read(); len(got) != 1 {
		t.Fatalf("read back %d sections after overwrite, want 1", len(got))
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries after writes, want just the snapshot", len(entries))
	}
}
