// Package snapshot implements the MOLC1 checkpoint container: a
// versioned binary envelope holding named sections, each protected by
// its own CRC32, behind a fixed-size section table that is itself
// checksummed. The envelope knows nothing about what the sections
// contain — the facade packs simulation state (cache, resize
// controller, telemetry, fault cursors) into it and unpacks on restore.
//
// Layout (all integers little-endian):
//
//	offset  size  field
//	0       5     magic "MOLC1"
//	5       1     version (currently 1)
//	6       2     section count (uint16)
//	8       4     CRC32 (IEEE) of the section table bytes
//	12      40*n  section table: per entry
//	              [16]byte name (NUL-padded)
//	              uint64   payload offset (from file start)
//	              uint64   payload length
//	              uint32   CRC32 (IEEE) of the payload
//	              uint32   reserved (zero)
//	...           payloads, in table order, no gaps
//
// Decode treats its input as hostile: truncation, torn writes, bit
// flips, version skew and table corruption are all detected and
// reported as *snapshot.Error values naming the failing section; no
// input can make it panic or over-allocate. Writes are crash-safe:
// WriteRaw lands the bytes in a temp file, fsyncs, renames into place
// and fsyncs the directory, so a crash leaves either the old snapshot
// or the new one — never a torn file.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
)

// Magic identifies a MOLC1 snapshot file.
const Magic = "MOLC1"

// Version is the current container version.
const Version = 1

const (
	headerLen = 12
	entryLen  = 40
	nameLen   = 16
)

// Section is one named payload of the container.
type Section struct {
	Name    string
	Payload []byte
}

// Error is the typed decode error: Section names what failed — a
// payload section's name, or "header" / "section-table" for envelope-
// level corruption — and Reason describes the corruption.
type Error struct {
	Section string
	Reason  string
}

func (e *Error) Error() string { return fmt.Sprintf("snapshot: %s: %s", e.Section, e.Reason) }

func errf(section, format string, args ...any) *Error {
	return &Error{Section: section, Reason: fmt.Sprintf(format, args...)}
}

// Encode serializes sections into a MOLC1 container. Section names must
// be non-empty, unique, NUL-free and at most 16 bytes.
func Encode(sections []Section) ([]byte, error) {
	return appendEncode(nil, sections)
}

// appendEncode appends the MOLC1 container of sections to dst. Offsets
// in the section table count from the container's first byte, not
// dst's.
func appendEncode(dst []byte, sections []Section) ([]byte, error) {
	if len(sections) > 0xFFFF {
		return nil, fmt.Errorf("snapshot: %d sections exceed the uint16 count field", len(sections))
	}
	seen := make(map[string]bool, len(sections))
	for _, s := range sections {
		if s.Name == "" || len(s.Name) > nameLen {
			return nil, fmt.Errorf("snapshot: section name %q must be 1-%d bytes", s.Name, nameLen)
		}
		for i := 0; i < len(s.Name); i++ {
			if s.Name[i] == 0 {
				return nil, fmt.Errorf("snapshot: section name %q contains NUL", s.Name)
			}
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("snapshot: duplicate section %q", s.Name)
		}
		seen[s.Name] = true
	}
	tableLen := entryLen * len(sections)
	total := headerLen + tableLen
	for _, s := range sections {
		total += len(s.Payload)
	}
	base := len(dst)
	dst = slices.Grow(dst, total)[:base+total]
	out := dst[base:]
	// A reused dst holds stale bytes; the encoding below writes every
	// byte except the names' NUL padding and the reserved fields.
	clear(out[:headerLen+tableLen])
	copy(out, Magic)
	out[5] = Version
	binary.LittleEndian.PutUint16(out[6:], uint16(len(sections)))

	off := uint64(headerLen + tableLen)
	for i, s := range sections {
		e := out[headerLen+i*entryLen:]
		copy(e[:nameLen], s.Name)
		binary.LittleEndian.PutUint64(e[nameLen:], off)
		binary.LittleEndian.PutUint64(e[nameLen+8:], uint64(len(s.Payload)))
		binary.LittleEndian.PutUint32(e[nameLen+16:], crc32.ChecksumIEEE(s.Payload))
		copy(out[off:], s.Payload)
		off += uint64(len(s.Payload))
	}
	binary.LittleEndian.PutUint32(out[8:], crc32.ChecksumIEEE(out[headerLen:headerLen+tableLen]))
	return dst, nil
}

// Decode parses a MOLC1 container, verifying the header, the table
// checksum and every section's CRC. All errors are *Error values; no
// input panics.
func Decode(data []byte) ([]Section, error) {
	if len(data) < headerLen {
		return nil, errf("header", "file of %d bytes is shorter than the %d-byte header", len(data), headerLen)
	}
	if string(data[:5]) != Magic {
		return nil, errf("header", "bad magic %q (want %q)", data[:5], Magic)
	}
	if v := data[5]; v != Version {
		return nil, errf("header", "unsupported version %d (this build reads version %d)", v, Version)
	}
	count := int(binary.LittleEndian.Uint16(data[6:]))
	tableEnd := headerLen + count*entryLen
	if tableEnd > len(data) {
		return nil, errf("section-table", "table of %d entries needs %d bytes, file has %d",
			count, tableEnd, len(data))
	}
	wantCRC := binary.LittleEndian.Uint32(data[8:])
	if got := crc32.ChecksumIEEE(data[headerLen:tableEnd]); got != wantCRC {
		return nil, errf("section-table", "table CRC %#08x does not match header's %#08x", got, wantCRC)
	}
	sections := make([]Section, 0, count)
	seen := make(map[string]bool, count)
	for i := 0; i < count; i++ {
		e := data[headerLen+i*entryLen:]
		name := trimName(e[:nameLen])
		if name == "" {
			return nil, errf("section-table", "entry %d has an empty name", i)
		}
		if seen[name] {
			return nil, errf(name, "section appears twice in the table")
		}
		seen[name] = true
		off := binary.LittleEndian.Uint64(e[nameLen:])
		length := binary.LittleEndian.Uint64(e[nameLen+8:])
		crc := binary.LittleEndian.Uint32(e[nameLen+16:])
		if off < uint64(tableEnd) {
			return nil, errf(name, "payload offset %d overlaps the section table (ends at %d)", off, tableEnd)
		}
		end := off + length
		if end < off || end > uint64(len(data)) {
			return nil, errf(name, "payload [%d,%d) exceeds the %d-byte file (truncated?)", off, end, len(data))
		}
		payload := data[off:end]
		if got := crc32.ChecksumIEEE(payload); got != crc {
			return nil, errf(name, "payload CRC %#08x does not match table's %#08x", got, crc)
		}
		sections = append(sections, Section{Name: name, Payload: append([]byte(nil), payload...)})
	}
	return sections, nil
}

// Find returns the named section's payload, or a typed error when the
// container lacks it.
func Find(sections []Section, name string) ([]byte, error) {
	for _, s := range sections {
		if s.Name == name {
			return s.Payload, nil
		}
	}
	return nil, errf(name, "section missing from snapshot")
}

// trimName strips the NUL padding from a table entry's name field; a
// name with interior NULs decodes as its first run (and will then fail
// whatever lookup expected the full name, which is the right outcome
// for a corrupted entry).
func trimName(b []byte) string {
	for i, c := range b {
		if c == 0 {
			return string(b[:i])
		}
	}
	return string(b)
}
