package server

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"molcache/internal/engine"
	"molcache/internal/trace"
)

// FuzzServerDecode hammers the wire-protocol decoder: any byte stream
// must produce either valid requests or typed *ProtocolErrors — never
// a panic, and never a request violating the protocol limits — and
// exactly the requests and error codes of fieldsReadRequest, the
// strings.Fields decoder ReadRequest replaced. Mirrors
// FuzzSnapshotDecode; wired into make fuzz and the CI fuzz smoke.
func FuzzServerDecode(f *testing.F) {
	f.Add([]byte("PING\r\n"))
	f.Add([]byte("QUIT\r\n"))
	f.Add([]byte("TENANT web 0.05 2\r\n"))
	f.Add([]byte("GET web user:17\r\n"))
	f.Add([]byte("SET web user:17 5\r\nhello\r\n"))
	f.Add([]byte("DEL web user:17\r\n"))
	f.Add([]byte("SET web k 1048577\r\n"))
	f.Add([]byte("FROB\r\n"))
	f.Add([]byte("TENANT " + strings.Repeat("t", 100) + " 0.5\r\n"))
	f.Add([]byte("GET we\x00b k\r\n"))
	f.Add([]byte("SET web k 10\r\ntrunc"))
	f.Add([]byte(strings.Repeat("x", MaxLineLen+2) + "\r\n"))
	f.Add([]byte("PING\r\nPING\r\nGET a b\r\n"))

	f.Add([]byte("GET\tweb\u00a0k\r\nSET  web k 1\r\nx\r\nTENANT a 0.5 2 9\r\n"))
	f.Add([]byte("GET web k\xff\r\nDEL \u3000web k\r\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		ref := bufio.NewReader(bytes.NewReader(data))
		for i := 0; i < 1000; i++ {
			req, err := ReadRequest(br)
			wantReq, wantErr := fieldsReadRequest(ref)
			if code(err) != code(wantErr) || !reflect.DeepEqual(req, wantReq) {
				t.Fatalf("request %d: ReadRequest = %+v, %v; strings.Fields decoder = %+v, %v",
					i, req, err, wantReq, wantErr)
			}
			if err != nil {
				if err == io.EOF {
					return
				}
				var pe *ProtocolError
				if !errors.As(err, &pe) {
					t.Fatalf("non-typed error from ReadRequest: %v", err)
				}
				if pe.Code == "" {
					t.Fatalf("ProtocolError with empty code: %v", pe)
				}
				// After an error the stream position may be mid-garbage;
				// the server closes fatal connections and resyncs at the
				// next line otherwise. Either way the decode loop ends
				// here for fuzzing purposes.
				return
			}
			switch req.Verb {
			case VerbTenant:
				if req.Goal <= 0 || req.Goal >= 1 {
					t.Fatalf("accepted out-of-range goal %v", req.Goal)
				}
				if len(req.Tenant) == 0 || len(req.Tenant) > MaxTenantLen {
					t.Fatalf("accepted bad tenant name %q", req.Tenant)
				}
			case VerbGet, VerbSet, VerbDel:
				if len(req.Key) == 0 || len(req.Key) > MaxKeyLen {
					t.Fatalf("accepted bad key %q", req.Key)
				}
				if len(req.Value) > MaxValueLen {
					t.Fatalf("accepted oversized value (%d bytes)", len(req.Value))
				}
			case VerbPing, VerbQuit:
			default:
				t.Fatalf("accepted unknown verb %q", req.Verb)
			}
		}
	})
}

// code names an error for comparison: its ProtocolError code, "EOF",
// or its text.
func code(err error) string {
	var pe *ProtocolError
	switch {
	case err == nil:
		return ""
	case err == io.EOF:
		return "EOF"
	case errors.As(err, &pe):
		return pe.Code
	}
	return err.Error()
}

// fieldsReadRequest is the decoder as it was before ReadRequest split
// fields in place: strings.Fields over a copied line. FuzzServerDecode
// holds ReadRequest to its accept/reject behaviour.
func fieldsReadRequest(br *bufio.Reader) (Request, error) {
	var line []byte
	for {
		frag, err := br.ReadSlice('\n')
		line = append(line, frag...)
		if err == nil {
			break
		}
		if err == bufio.ErrBufferFull {
			if len(line) > MaxLineLen+1 {
				return Request{}, errProto(ErrLineTooLong, "")
			}
			continue
		}
		if err == io.EOF {
			if len(line) == 0 {
				return Request{}, io.EOF
			}
			return Request{}, errProto(ErrTruncated, "")
		}
		return Request{}, err
	}
	line = bytes.TrimSuffix(line[:len(line)-1], []byte("\r"))
	if len(line) > MaxLineLen {
		return Request{}, errProto(ErrLineTooLong, "")
	}
	fields := strings.Fields(string(line))
	if len(fields) == 0 {
		return Request{}, errProto(ErrBadVerb, "")
	}
	req := Request{Verb: Verb(fields[0])}
	args := fields[1:]
	tenantKey := func(args []string) error {
		switch {
		case len(args) != 2:
			return errProto(ErrBadArgs, "")
		case !validTenantName(args[0]):
			return errProto(ErrBadTenant, "")
		case !validKey(args[1]):
			return errProto(ErrBadKey, "")
		}
		req.Tenant, req.Key = args[0], args[1]
		return nil
	}
	switch req.Verb {
	case VerbPing, VerbQuit:
		if len(args) != 0 {
			return Request{}, errProto(ErrBadArgs, "")
		}
		return req, nil
	case VerbTenant:
		if len(args) != 2 && len(args) != 3 {
			return Request{}, errProto(ErrBadArgs, "")
		}
		if !validTenantName(args[0]) {
			return Request{}, errProto(ErrBadTenant, "")
		}
		req.Tenant = args[0]
		goal, err := strconv.ParseFloat(args[1], 64)
		if err != nil || goal <= 0 || goal >= 1 {
			return Request{}, errProto(ErrBadGoal, "")
		}
		req.Goal = goal
		if len(args) == 3 {
			lf, err := strconv.Atoi(args[2])
			if err != nil || lf < 1 || lf > 1024 {
				return Request{}, errProto(ErrBadArgs, "")
			}
			req.LineFactor = lf
		}
		return req, nil
	case VerbGet, VerbDel:
		if err := tenantKey(args); err != nil {
			return Request{}, err
		}
		return req, nil
	case VerbSet:
		if len(args) != 3 {
			return Request{}, errProto(ErrBadArgs, "")
		}
		if err := tenantKey(args[:2]); err != nil {
			return Request{}, err
		}
		n, err := strconv.Atoi(args[2])
		if err != nil || n < 0 || n > MaxValueLen {
			return Request{}, errProto(ErrBadValue, "")
		}
		buf := make([]byte, n+2)
		if _, err := io.ReadFull(br, buf); err != nil {
			return Request{}, errProto(ErrTruncated, "")
		}
		if buf[n] != '\r' || buf[n+1] != '\n' {
			return Request{}, errProto(ErrTruncated, "")
		}
		req.Value = buf[:n:n]
		return req, nil
	}
	return Request{}, errProto(ErrBadVerb, "")
}

// FuzzJournalDecode hammers the batch2 payload decoder: no input may
// panic, every failure is a *JournalError, and every record it accepts
// survives an encode and decode round trip unchanged. Wired into make
// fuzz and the CI fuzz smoke.
func FuzzJournalDecode(f *testing.F) {
	f.Add(appendBatch(nil, 1, []trace.Ref{{Addr: 1<<36 | 64, ASID: 1, Kind: trace.Write}},
		[]engine.Result{{LinesFetched: 2, TagProbes: 1, DataReads: 2}}))
	f.Add(appendBatch(nil, 7, []trace.Ref{
		{Addr: 3<<36 | 1<<25, ASID: 3},
		{Addr: 1 << 63, ASID: 0xFFFF, CPU: 0xFF, Kind: 0xFF},
	}, []engine.Result{
		{Hit: true, TagProbes: 4, DataReads: 1, RemoteTileHit: true},
		{LinesFetched: -1, LinesEvicted: 1 << 40, Writebacks: 3},
	}))
	f.Add([]byte{1, 1, 0x80})
	f.Add([]byte{1, 0xFF, 0xFF, 0x03, 0})
	f.Add([]byte(`{"first":1,"refs":[],"results":[]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeBatch(0, data)
		if err != nil {
			var je *JournalError
			if !errors.As(err, &je) {
				t.Fatalf("non-typed error from decodeBatch: %v", err)
			}
			return
		}
		again, err := decodeBatch(0, appendBatch(nil, rec.First, rec.Refs, rec.Results))
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v (record %+v)", err, rec)
		}
		if !reflect.DeepEqual(again, rec) {
			t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", again, rec)
		}
	})
}
