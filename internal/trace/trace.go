// Package trace defines the memory-reference record that flows between
// every component of the simulator, its binary serialization (MTR1) and a
// text dump.
//
// The paper's methodology is trace-driven: a CMP simulator (SESC there,
// internal/cmp here) records the L1-data miss stream, and the cache under
// study (a modified Dinero there, internal/cache and internal/molecular
// here) replays it. A Ref is one record of that stream.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Kind distinguishes reads from writes.
type Kind uint8

const (
	// Read is a data load.
	Read Kind = iota
	// Write is a data store.
	Write
)

func (k Kind) String() string {
	switch k {
	case Read:
		return "R"
	case Write:
		return "W"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Ref is a single memory reference.
type Ref struct {
	// Addr is the physical byte address.
	Addr uint64
	// ASID is the Application Space Identifier of the issuing process.
	ASID uint16
	// CPU is the core the reference was issued from.
	CPU uint8
	// Kind is Read or Write.
	Kind Kind
}

func (r Ref) String() string {
	return fmt.Sprintf("%s asid=%d cpu=%d addr=%#x", r.Kind, r.ASID, r.CPU, r.Addr)
}

// recordSize is the fixed on-disk size of one binary record:
// 8 (addr) + 2 (asid) + 1 (cpu) + 1 (kind).
const recordSize = 12

// magic identifies the binary trace format ("MTR1").
var magic = [4]byte{'M', 'T', 'R', '1'}

// Writer encodes Refs into the binary trace format.
type Writer struct {
	w           *bufio.Writer
	wroteHeader bool
	count       uint64
}

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Write appends one record.
func (tw *Writer) Write(r Ref) error {
	if !tw.wroteHeader {
		if _, err := tw.w.Write(magic[:]); err != nil {
			return err
		}
		tw.wroteHeader = true
	}
	var buf [recordSize]byte
	binary.LittleEndian.PutUint64(buf[0:8], r.Addr)
	binary.LittleEndian.PutUint16(buf[8:10], r.ASID)
	buf[10] = r.CPU
	buf[11] = byte(r.Kind)
	if _, err := tw.w.Write(buf[:]); err != nil {
		return err
	}
	tw.count++
	return nil
}

// Count returns the number of records written so far.
func (tw *Writer) Count() uint64 { return tw.count }

// Flush drains buffered records to the underlying writer. Callers must
// Flush before closing the destination.
func (tw *Writer) Flush() error {
	if !tw.wroteHeader {
		// An empty trace still carries the magic so readers can
		// distinguish "empty trace" from "not a trace".
		if _, err := tw.w.Write(magic[:]); err != nil {
			return err
		}
		tw.wroteHeader = true
	}
	return tw.w.Flush()
}

// Reader decodes the binary trace format.
type Reader struct {
	r *bufio.Reader
	n uint64 // records decoded so far
}

// ErrBadMagic is returned by NewReader when the stream does not start
// with the trace magic.
var ErrBadMagic = errors.New("trace: bad magic (not a binary trace)")

// NewReader wraps r, validating the header.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var got [4]byte
	if _, err := io.ReadFull(br, got[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, ErrBadMagic
		}
		return nil, err
	}
	if got != magic {
		return nil, ErrBadMagic
	}
	return &Reader{r: br}, nil
}

// Read returns the next record, or io.EOF at the end of the trace. A
// record cut short or carrying a kind byte other than Read or Write is
// an error naming the record's index.
func (tr *Reader) Read() (Ref, error) {
	var buf [recordSize]byte
	if _, err := io.ReadFull(tr.r, buf[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return Ref{}, fmt.Errorf("trace: truncated record %d: %w", tr.n, err)
		}
		return Ref{}, err
	}
	kind := Kind(buf[11])
	if kind != Read && kind != Write {
		return Ref{}, fmt.Errorf("trace: record %d: unknown kind byte %d", tr.n, buf[11])
	}
	tr.n++
	return Ref{
		Addr: binary.LittleEndian.Uint64(buf[0:8]),
		ASID: binary.LittleEndian.Uint16(buf[8:10]),
		CPU:  buf[10],
		Kind: kind,
	}, nil
}

// ReadAll drains the reader into a slice.
func (tr *Reader) ReadAll() ([]Ref, error) {
	var out []Ref
	for {
		r, err := tr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
}

// WriteText emits a human-readable one-record-per-line dump:
// "R|W <asid> <cpu> <hex addr>" (tracegen -dump).
func WriteText(w io.Writer, refs []Ref) error {
	bw := bufio.NewWriter(w)
	for _, r := range refs {
		if _, err := fmt.Fprintf(bw, "%s %d %d %#x\n", r.Kind, r.ASID, r.CPU, r.Addr); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Interleave merges per-source reference streams round-robin, one record
// from each non-exhausted stream per turn, which is the classic
// trace-driven approximation of concurrent execution. Streams may have
// different lengths; exhausted streams drop out.
func Interleave(streams ...[]Ref) []Ref {
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	out := make([]Ref, 0, total)
	idx := make([]int, len(streams))
	for remaining := total; remaining > 0; {
		for i, s := range streams {
			if idx[i] < len(s) {
				out = append(out, s[idx[i]])
				idx[i]++
				remaining--
			}
		}
	}
	return out
}
