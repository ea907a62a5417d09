package server

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"

	"molcache/internal/engine"
	"molcache/internal/faults"
	"molcache/internal/molecular"
	"molcache/internal/resize"
	"molcache/internal/snapshot"
	"molcache/internal/trace"
)

// The access journal is a stream of length-prefixed MOLC1 containers
// (snapshot.FrameWriter), one frame per record. Frame kinds are named
// by their single section:
//
//	config  genesis record (JSON): the molecular/resize configurations,
//	        fault campaign, address-mapping width and tracer ring size —
//	        a journal is self-describing, replayable with no side channel;
//	tenant  one TENANT admin action (JSON: region creation or goal
//	        update), stamped with the access count it happened at;
//	batch2  one admitted access run in the binary layout of appendBatch:
//	        the refs in service order plus the Results the live server
//	        computed for them.
//
// Journaling Results makes the differential oracle per-access: replay
// recomputes every Result offline and any divergence names the exact
// sequence number, not just a drifted end state. Earlier builds wrote
// JSON batch frames under the kind "batch"; ReadJournal rejects them
// by name rather than misreading them.
const (
	frameConfig    = "config"
	frameTenant    = "tenant"
	frameBatch     = "batch2"
	frameBatchJSON = "batch"
)

// JournalConfig is the genesis frame: everything an offline replayer
// needs to rebuild the server's simulator from scratch.
type JournalConfig struct {
	Molecular molecular.Config `json:"molecular"`
	Resize    resize.Config    `json:"resize"`
	Faults    faults.Campaign  `json:"faults"`
	AddrBits  uint             `json:"addr_bits"`
	EventRing int              `json:"event_ring"`
}

// TenantRecord journals one TENANT admin action.
type TenantRecord struct {
	// At is the server's access count when the action ran (the gap
	// check: it must equal the preceding batch's last sequence number).
	At   uint64 `json:"at"`
	ASID uint16 `json:"asid"`
	Name string `json:"name"`
	// Goal is the tenant's miss-rate SLO goal after the action.
	Goal float64 `json:"goal"`
	// LineFactor is the region's line factor (creation only).
	LineFactor int `json:"line_factor,omitempty"`
	// Update marks a goal update on an existing tenant; the region is
	// created only when Update is false.
	Update bool `json:"update,omitempty"`
}

// BatchRecord journals one admitted access run.
type BatchRecord struct {
	// First is the 1-based sequence number of Refs[0]; a gap-free
	// journal has First == previous last + 1.
	First   uint64
	Refs    []trace.Ref
	Results []engine.Result
}

// A batch2 payload is a run of varints (encoding/binary's unsigned
// uvarint, and zigzag varint for the Result counts):
//
//	first  uvarint  sequence number of the first access
//	count  uvarint  accesses in the frame, at least 1
//	per access, in service order:
//	  addr   uvarint  Ref.Addr XOR ASID<<36, so an address inside its
//	                  tenant's space costs at most 4 bytes for the
//	                  default 26-bit space
//	  asid   uvarint  at most 0xFFFF
//	  cpu    uvarint  at most 0xFF
//	  kind   uvarint  at most 0xFF
//	  flags  uvarint  bit 0 Hit, bit 1 RemoteTileHit, no other bits
//	  LinesFetched, LinesEvicted, Writebacks, TagProbes, DataReads
//	         varint each
//
// minAccessBytes is the smallest encoding of one access (one byte per
// field), which bounds the count a payload can claim.
const minAccessBytes = 10

const (
	flagHit = 1 << iota
	flagRemoteTileHit
)

// appendBatch appends the batch2 payload of one access run to b.
func appendBatch(b []byte, first uint64, refs []trace.Ref, results []engine.Result) []byte {
	b = binary.AppendUvarint(b, first)
	b = binary.AppendUvarint(b, uint64(len(refs)))
	for i, r := range refs {
		b = binary.AppendUvarint(b, r.Addr^uint64(r.ASID)<<asidShift)
		b = binary.AppendUvarint(b, uint64(r.ASID))
		b = binary.AppendUvarint(b, uint64(r.CPU))
		b = binary.AppendUvarint(b, uint64(r.Kind))
		res := &results[i]
		var flags uint64
		if res.Hit {
			flags |= flagHit
		}
		if res.RemoteTileHit {
			flags |= flagRemoteTileHit
		}
		b = binary.AppendUvarint(b, flags)
		b = binary.AppendVarint(b, int64(res.LinesFetched))
		b = binary.AppendVarint(b, int64(res.LinesEvicted))
		b = binary.AppendVarint(b, int64(res.Writebacks))
		b = binary.AppendVarint(b, int64(res.TagProbes))
		b = binary.AppendVarint(b, int64(res.DataReads))
	}
	return b
}

// payloadReader decodes a batch2 payload; the first failure sticks.
type payloadReader struct {
	p   []byte
	err string
}

func (r *payloadReader) uvarint(field string, max uint64) uint64 {
	if r.err != "" {
		return 0
	}
	v, n := binary.Uvarint(r.p)
	switch {
	case n == 0:
		r.err = "truncated varint in " + field
	case n < 0:
		r.err = "varint overflows 64 bits in " + field
	case v > max:
		r.err = fmt.Sprintf("%s %d wider than its %d-bit field", field, v, bits.Len64(max))
	default:
		r.p = r.p[n:]
	}
	return v
}

func (r *payloadReader) int(field string) int {
	if r.err != "" {
		return 0
	}
	v, n := binary.Varint(r.p)
	switch {
	case n == 0:
		r.err = "truncated varint in " + field
	case n < 0:
		r.err = "varint overflows 64 bits in " + field
	case int64(int(v)) != v:
		r.err = fmt.Sprintf("%s %d overflows int", field, v)
	default:
		r.p = r.p[n:]
	}
	return int(v)
}

// decodeBatch parses a batch2 payload. Any malformed, truncated or
// over-long payload is a *JournalError; a payload cannot make it
// allocate more than its own length allows.
func decodeBatch(seq uint64, p []byte) (*BatchRecord, error) {
	r := payloadReader{p: p}
	first := r.uvarint("first", math.MaxUint64)
	count := r.uvarint("count", math.MaxUint64)
	switch {
	case r.err != "":
		return nil, errJournal(seq, "batch frame: %s", r.err)
	case count == 0:
		return nil, errJournal(seq, "batch frame holds no accesses")
	case count > uint64(len(r.p))/minAccessBytes:
		return nil, errJournal(seq, "batch frame claims %d accesses, its %d remaining bytes hold at most %d",
			count, len(r.p), len(r.p)/minAccessBytes)
	}
	rec := &BatchRecord{
		First:   first,
		Refs:    make([]trace.Ref, count),
		Results: make([]engine.Result, count),
	}
	for i := range rec.Refs {
		addr := r.uvarint("addr", math.MaxUint64)
		asid := r.uvarint("asid", math.MaxUint16)
		rec.Refs[i] = trace.Ref{
			Addr: addr ^ asid<<asidShift,
			ASID: uint16(asid),
			CPU:  uint8(r.uvarint("cpu", math.MaxUint8)),
			Kind: trace.Kind(r.uvarint("kind", math.MaxUint8)),
		}
		flags := r.uvarint("flags", flagHit|flagRemoteTileHit)
		rec.Results[i] = engine.Result{
			Hit:           flags&flagHit != 0,
			LinesFetched:  r.int("LinesFetched"),
			LinesEvicted:  r.int("LinesEvicted"),
			Writebacks:    r.int("Writebacks"),
			TagProbes:     r.int("TagProbes"),
			DataReads:     r.int("DataReads"),
			RemoteTileHit: flags&flagRemoteTileHit != 0,
		}
		if r.err != "" {
			return nil, errJournal(seq, "batch frame access %d: %s", i, r.err)
		}
	}
	if len(r.p) != 0 {
		return nil, errJournal(seq, "batch frame has %d trailing bytes", len(r.p))
	}
	return rec, nil
}

// JournalError is the typed error for journal structure violations:
// corrupt frames, sequence gaps, config mismatches.
type JournalError struct {
	Seq    uint64
	Reason string
}

func (e *JournalError) Error() string {
	return fmt.Sprintf("server: journal at seq %d: %s", e.Seq, e.Reason)
}

func errJournal(seq uint64, format string, args ...any) *JournalError {
	return &JournalError{Seq: seq, Reason: fmt.Sprintf(format, args...)}
}

// Frame is one decoded journal record; exactly one field is non-nil.
type Frame struct {
	Config *JournalConfig
	Tenant *TenantRecord
	Batch  *BatchRecord
}

// decodeFrame decodes one frame read at access count seq.
func decodeFrame(seq uint64, sections []snapshot.Section) (Frame, error) {
	if len(sections) != 1 {
		return Frame{}, errJournal(seq, "frame has %d sections, want 1", len(sections))
	}
	s := sections[0]
	var f Frame
	var err error
	switch s.Name {
	case frameBatch:
		f.Batch, err = decodeBatch(seq, s.Payload)
		return f, err
	case frameConfig:
		f.Config = new(JournalConfig)
		err = json.Unmarshal(s.Payload, f.Config)
	case frameTenant:
		f.Tenant = new(TenantRecord)
		err = json.Unmarshal(s.Payload, f.Tenant)
	case frameBatchJSON:
		return Frame{}, errJournal(seq, "JSON %q frame from an older build; this build reads binary %q frames",
			frameBatchJSON, frameBatch)
	default:
		return Frame{}, errJournal(seq, "unknown frame kind %q", s.Name)
	}
	if err != nil {
		return Frame{}, errJournal(seq, "decode %s frame: %v", s.Name, err)
	}
	return f, nil
}

// Journal is the server's append-side handle: buffered writes, access
// sequence accounting, explicit Sync.
type Journal struct {
	f       *os.File
	bw      *bufio.Writer
	fw      *snapshot.FrameWriter
	payload []byte // Batch's encoding buffer, reused across frames
	seq     uint64
}

func (j *Journal) writeFrame(kind string, payload []byte) error {
	return j.fw.WriteFrame([]snapshot.Section{{Name: kind, Payload: payload}})
}

func (j *Journal) writeJSON(kind string, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("server: encode %s frame: %w", kind, err)
	}
	return j.writeFrame(kind, payload)
}

// CreateJournal creates (truncating) the journal at path and writes the
// genesis config frame.
func CreateJournal(path string, cfg JournalConfig) (*Journal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("server: create journal: %w", err)
	}
	j := &Journal{f: f, bw: bufio.NewWriter(f)}
	j.fw = snapshot.NewFrameWriter(j.bw)
	if err := j.writeJSON(frameConfig, cfg); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// OpenJournal opens an existing journal for appending (the warm-restart
// path): it scans every frame to recover the genesis config and the
// last access sequence number, then positions the write cursor at the
// end. Any corruption or sequence gap is a typed error.
func OpenJournal(path string) (*Journal, JournalConfig, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, JournalConfig{}, fmt.Errorf("server: open journal: %w", err)
	}
	cfg, frames, err := ReadJournal(f)
	if err != nil {
		f.Close()
		return nil, JournalConfig{}, err
	}
	var seq uint64
	for _, fr := range frames {
		if fr.Batch != nil {
			seq += uint64(len(fr.Batch.Refs))
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, JournalConfig{}, fmt.Errorf("server: seek journal end: %w", err)
	}
	j := &Journal{f: f, bw: bufio.NewWriter(f), seq: seq}
	j.fw = snapshot.NewFrameWriter(j.bw)
	return j, cfg, nil
}

// Tenant appends a tenant frame.
func (j *Journal) Tenant(rec TenantRecord) error {
	if j == nil {
		return nil
	}
	rec.At = j.seq
	return j.writeJSON(frameTenant, rec)
}

// Batch appends one admitted access run with its live Results.
func (j *Journal) Batch(refs []trace.Ref, results []engine.Result) error {
	if j == nil || len(refs) == 0 {
		return nil
	}
	j.payload = appendBatch(j.payload[:0], j.seq+1, refs, results)
	if err := j.writeFrame(frameBatch, j.payload); err != nil {
		return err
	}
	j.seq += uint64(len(refs))
	return nil
}

// Seq returns the last journaled access sequence number.
func (j *Journal) Seq() uint64 {
	if j == nil {
		return 0
	}
	return j.seq
}

// Sync flushes buffered frames and fsyncs the file.
func (j *Journal) Sync() error {
	if j == nil {
		return nil
	}
	if err := j.bw.Flush(); err != nil {
		return err
	}
	return j.f.Sync()
}

// Close syncs and closes the journal.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	if err := j.Sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}

// ReadJournal decodes every frame of a journal stream, verifying frame
// order and sequence continuity (the race-serve gap check reuses this).
func ReadJournal(r io.Reader) (JournalConfig, []Frame, error) {
	var cfg JournalConfig
	var frames []Frame
	var seq uint64
	fr := snapshot.NewFrameReader(bufio.NewReader(r))
	for i := 0; ; i++ {
		sections, err := fr.ReadFrame()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return cfg, frames, errJournal(seq, "frame %d: %v", i, err)
		}
		frame, err := decodeFrame(seq, sections)
		if err != nil {
			return cfg, frames, err
		}
		switch {
		case frame.Config != nil:
			if i != 0 {
				return cfg, frames, errJournal(seq, "config frame at position %d, want 0", i)
			}
			cfg = *frame.Config
		case i == 0:
			return cfg, frames, errJournal(0, "journal does not start with a config frame")
		case frame.Tenant != nil:
			if frame.Tenant.At != seq {
				return cfg, frames, errJournal(seq, "tenant frame stamped at %d", frame.Tenant.At)
			}
		case frame.Batch != nil:
			if frame.Batch.First != seq+1 {
				return cfg, frames, errJournal(seq, "batch starts at %d, want %d (gap)", frame.Batch.First, seq+1)
			}
			if len(frame.Batch.Refs) != len(frame.Batch.Results) {
				return cfg, frames, errJournal(seq, "batch has %d refs but %d results",
					len(frame.Batch.Refs), len(frame.Batch.Results))
			}
			seq += uint64(len(frame.Batch.Refs))
		}
		frames = append(frames, frame)
	}
	if len(frames) == 0 {
		return cfg, frames, errJournal(0, "journal is empty")
	}
	return cfg, frames, nil
}

// ReadJournalFile is ReadJournal over a file.
func ReadJournalFile(path string) (JournalConfig, []Frame, error) {
	f, err := os.Open(path)
	if err != nil {
		return JournalConfig{}, nil, fmt.Errorf("server: open journal: %w", err)
	}
	defer f.Close()
	return ReadJournal(f)
}
