package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"molcache/internal/addr"
	"molcache/internal/engine"
	"molcache/internal/molecular"
	"molcache/internal/resize"
	"molcache/internal/snapshot"
	"molcache/internal/trace"
)

func testJournalConfig() JournalConfig {
	return JournalConfig{
		Molecular: molecular.Config{
			TotalSize: 1 * addr.MB, Clusters: 2, TilesPerCluster: 4,
			Policy: molecular.RandyReplacement, InitialMolecules: 8, Seed: 2006,
		},
		Resize:    resize.Config{Period: 400, DefaultGoal: 0.2},
		AddrBits:  26,
		EventRing: 4096,
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.molc")
	cfg := testJournalConfig()
	j, err := CreateJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Tenant(TenantRecord{ASID: 1, Name: "web", Goal: 0.05, LineFactor: 2}); err != nil {
		t.Fatal(err)
	}
	refs := []trace.Ref{
		{Addr: 1 << 36, ASID: 1, Kind: trace.Write},
		{Addr: 1<<36 | 64, ASID: 1, Kind: trace.Read},
	}
	results := []engine.Result{
		{LinesFetched: 2, TagProbes: 1, DataReads: 2},
		{Hit: true, TagProbes: 1, DataReads: 1},
	}
	if err := j.Batch(refs, results); err != nil {
		t.Fatal(err)
	}
	if err := j.Tenant(TenantRecord{ASID: 1, Name: "web", Goal: 0.1, Update: true}); err != nil {
		t.Fatal(err)
	}
	if got := j.Seq(); got != 2 {
		t.Fatalf("Seq() = %d, want 2", got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	rcfg, frames, err := ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rcfg, cfg) {
		t.Errorf("config round trip: got %+v, want %+v", rcfg, cfg)
	}
	if len(frames) != 4 {
		t.Fatalf("got %d frames, want 4", len(frames))
	}
	if frames[1].Tenant == nil || frames[1].Tenant.Name != "web" || frames[1].Tenant.At != 0 {
		t.Errorf("tenant frame: %+v", frames[1].Tenant)
	}
	b := frames[2].Batch
	if b == nil || b.First != 1 || !reflect.DeepEqual(b.Refs, refs) || !reflect.DeepEqual(b.Results, results) {
		t.Errorf("batch frame: %+v", b)
	}
	upd := frames[3].Tenant
	if upd == nil || !upd.Update || upd.At != 2 || upd.Goal != 0.1 {
		t.Errorf("update frame: %+v", upd)
	}
}

func TestJournalAppendContinuity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.molc")
	cfg := testJournalConfig()
	j, err := CreateJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refs := []trace.Ref{{Addr: 1 << 36, ASID: 1}}
	res := []engine.Result{{Hit: true}}
	if err := j.Tenant(TenantRecord{ASID: 1, Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Batch(refs, res); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, cfg2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg2, cfg) {
		t.Errorf("reopened config mismatch")
	}
	if j2.Seq() != 1 {
		t.Fatalf("reopened Seq() = %d, want 1", j2.Seq())
	}
	if err := j2.Batch(refs, res); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	_, frames, err := ReadJournalFile(path)
	if err != nil {
		t.Fatalf("journal after append must stay gap-free: %v", err)
	}
	if len(frames) != 4 {
		t.Fatalf("got %d frames after append, want 4", len(frames))
	}
	if frames[3].Batch.First != 2 {
		t.Errorf("appended batch First = %d, want 2", frames[3].Batch.First)
	}
}

func TestJournalGapDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.molc")
	j, err := CreateJournal(path, testJournalConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Forge a gap: write a batch frame whose First skips a sequence
	// number by bypassing Batch's accounting.
	if err := j.writeFrame(frameBatch, appendBatch(nil, 2,
		[]trace.Ref{{Addr: 64, ASID: 1}}, []engine.Result{{}})); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, err = ReadJournalFile(path)
	var je *JournalError
	if !errors.As(err, &je) {
		t.Fatalf("gap: got %v, want *JournalError", err)
	}
}

func TestJournalCorruptionDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.molc")
	j, err := CreateJournal(path, testJournalConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Batch([]trace.Ref{{Addr: 64, ASID: 1}}, []engine.Result{{}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the last frame's payload (under the section CRC)
	// and truncate the tail, checking both corruption classes.
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-3] ^= 0xFF
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	var je *JournalError
	if _, _, err := ReadJournalFile(path); !errors.As(err, &je) {
		t.Fatalf("bit flip: got %v, want *JournalError", err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadJournalFile(path); !errors.As(err, &je) {
		t.Fatalf("truncation: got %v, want *JournalError", err)
	}
	if _, _, err := OpenJournal(path); !errors.As(err, &je) {
		t.Fatalf("OpenJournal on torn tail: got %v, want *JournalError", err)
	}
}

func TestJournalMissingConfigFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.molc")
	// An empty journal (zero frames) must be rejected.
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var je *JournalError
	if _, _, err := ReadJournalFile(path); !errors.As(err, &je) {
		t.Fatalf("empty journal: got %v, want *JournalError", err)
	}
	// A journal whose first frame is not a config frame must be
	// rejected too.
	j, err := CreateJournal(path, testJournalConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Tenant(TenantRecord{ASID: 1, Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the config frame: its length prefix is the first 4 bytes.
	cfgLen := int(uint32(data[0]) | uint32(data[1])<<8 | uint32(data[2])<<16 | uint32(data[3])<<24)
	if err := os.WriteFile(path, data[4+cfgLen:], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadJournalFile(path); !errors.As(err, &je) {
		t.Fatalf("headless journal: got %v, want *JournalError", err)
	}
}

func TestBatchPayloadRoundTrip(t *testing.T) {
	refs := []trace.Ref{
		{Addr: 1<<36 | 0x3ffffc0, ASID: 1, Kind: trace.Write},
		{Addr: 0xFFFF<<36 | 64, ASID: 0xFFFF, CPU: 3},
		{Addr: 1<<63 | 5, ASID: 2, Kind: trace.Read},
	}
	results := []engine.Result{
		{LinesFetched: 2, LinesEvicted: 1, Writebacks: 1, TagProbes: 5, DataReads: 2},
		{Hit: true, TagProbes: 1, DataReads: 1, RemoteTileHit: true},
		{RemoteTileHit: true, LinesFetched: -3},
	}
	p := appendBatch(nil, 41, refs, results)
	rec, err := decodeBatch(0, p)
	if err != nil {
		t.Fatal(err)
	}
	want := &BatchRecord{First: 41, Refs: refs, Results: results}
	if !reflect.DeepEqual(rec, want) {
		t.Fatalf("round trip: got %+v, want %+v", rec, want)
	}
	// An access inside its tenant's 26-bit space costs at most 17
	// payload bytes: the frame plus the MOLC1 envelope stays under 80.
	one := appendBatch(nil, 70000, refs[:1], results[:1])
	if len(one) > 17 {
		t.Errorf("one-access payload is %d bytes, want at most 17", len(one))
	}
}

// TestBatchPayloadRejects: every malformed batch2 payload, and a batch
// frame written by the JSON-era journal, is a typed *JournalError.
func TestBatchPayloadRejects(t *testing.T) {
	valid := appendBatch(nil, 1, []trace.Ref{{Addr: 1<<36 | 64, ASID: 1}}, []engine.Result{{Hit: true}})
	// access builds a one-access payload with the given ASID and CPU
	// fields and an all-zero Result after the flags.
	access := func(asid, cpu, flags uint64) []byte {
		b := binary.AppendUvarint(nil, 1) // first
		b = binary.AppendUvarint(b, 1)    // count
		b = binary.AppendUvarint(b, 64)   // addr
		b = binary.AppendUvarint(b, asid)
		b = binary.AppendUvarint(b, cpu)
		b = binary.AppendUvarint(b, 0) // kind
		b = binary.AppendUvarint(b, flags)
		return append(b, 0, 0, 0, 0, 0) // the five counts
	}
	cases := []struct {
		name    string
		payload []byte
		reason  string // a substring of the JournalError's reason
	}{
		{"empty", nil, "truncated varint in first"},
		{"truncated varint", append(binary.AppendUvarint(nil, 1), 0x80), "truncated varint in count"},
		{"truncated access", valid[:len(valid)-1], "claims 1 accesses"},
		{"truncated count field", append(access(1, 0, 0)[:len(access(1, 0, 0))-1], 0x80), "truncated varint in DataReads"},
		{"varint overflows 64 bits", append(append(binary.AppendUvarint(nil, 1), bytes.Repeat([]byte{0xFF}, 9)...), 0x02), "overflows 64 bits"},
		{"no accesses", binary.AppendUvarint(binary.AppendUvarint(nil, 1), 0), "no accesses"},
		{"count larger than payload", binary.AppendUvarint(binary.AppendUvarint(nil, 1), 1<<40), "claims 1099511627776 accesses"},
		{"count one past payload", append(binary.AppendUvarint(binary.AppendUvarint(nil, 1), 2), valid[2:]...), "claims 2 accesses"},
		{"asid wider than 16 bits", access(1<<16, 0, 0), "asid 65536 wider than its 16-bit field"},
		{"cpu wider than 8 bits", access(1, 256, 0), "cpu 256 wider than its 8-bit field"},
		{"unknown result flag", access(1, 0, 4), "flags 4 wider"},
		{"trailing bytes", append(append([]byte(nil), valid...), 0), "1 trailing bytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodeFrame(0, []snapshot.Section{{Name: frameBatch, Payload: tc.payload}})
			var je *JournalError
			if !errors.As(err, &je) {
				t.Fatalf("got %v, want *JournalError", err)
			}
			if !strings.Contains(je.Reason, tc.reason) {
				t.Errorf("reason %q does not mention %q", je.Reason, tc.reason)
			}
		})
	}
	if _, err := decodeBatch(0, access(0xFFFF, 0xFF, flagHit|flagRemoteTileHit)); err != nil {
		t.Fatalf("widest valid ASID rejected: %v", err)
	}

	// A journal holding a JSON-era batch frame is rejected by name.
	t.Run("JSON-era batch frame", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "j.molc")
		j, err := CreateJournal(path, testJournalConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := j.writeFrame(frameBatchJSON, []byte(
			`{"first":1,"refs":[{"Addr":64,"ASID":1,"CPU":0,"Kind":0}],"results":[{"Hit":true}]}`)); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		_, _, err = ReadJournalFile(path)
		var je *JournalError
		if !errors.As(err, &je) || !strings.Contains(je.Reason, "older build") {
			t.Fatalf("got %v, want a *JournalError naming the JSON-era frame", err)
		}
	})
}
