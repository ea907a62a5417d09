// Package server is molcached's serving layer: a TCP key/value cache
// daemon where each tenant is an ASID with its own molecular cache
// region, miss-rate SLO goal and line factor. The wire protocol is a
// memcached-style text protocol; every admitted access is decoded to a
// block address, run through the simulator's serial access path, and
// journaled to a MOLC1-framed access log that an offline Simulator can
// replay byte-identically (the served-traffic differential oracle — see
// replay.go and DESIGN.md §14).
//
// Concurrency contract: one goroutine per client connection decodes a
// request, runs its critical section under the server's one mutex —
// the store change, Simulator.Access and the journal frame — and
// writes the reply after unlocking. An obs request holds the same
// mutex while it collects the State it serves. The mutex guards the
// simulator, value store, tenant table and journal; nothing else
// touches them while the server runs, and there is no request queue.
package server

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"

	"molcache/internal/trace"
)

// Protocol limits. A line (verb + arguments + CRLF) is bounded so a
// malicious client cannot buffer unbounded garbage; keys, values and
// tenant names have their own caps.
const (
	MaxLineLen   = 4096
	MaxKeyLen    = 250
	MaxValueLen  = 1 << 20
	MaxTenantLen = 64
)

// Verb is a protocol command.
type Verb string

// The protocol verbs.
const (
	VerbTenant Verb = "TENANT"
	VerbGet    Verb = "GET"
	VerbSet    Verb = "SET"
	VerbDel    Verb = "DEL"
	VerbPing   Verb = "PING"
	VerbQuit   Verb = "QUIT"
)

// ProtocolError codes. Decode-level codes come out of ReadRequest;
// server-level codes come back on the wire in ERR replies.
const (
	ErrBadVerb     = "bad-verb"
	ErrBadArgs     = "bad-args"
	ErrBadTenant   = "bad-tenant"
	ErrBadKey      = "bad-key"
	ErrBadValue    = "bad-value"
	ErrBadGoal     = "bad-goal"
	ErrLineTooLong = "line-too-long"
	ErrTruncated   = "truncated"

	ErrUnknownTenant  = "unknown-tenant"
	ErrTenantConflict = "tenant-conflict"
	ErrTenantLimit    = "tenant-limit"
	ErrRegionAlloc    = "region-alloc"
	ErrShutdown       = "shutting-down"
)

// ProtocolError is the typed error for every malformed request and
// every ERR reply: Code is a stable machine-readable slug, Detail the
// human-readable specifics.
type ProtocolError struct {
	Code   string
	Detail string
}

func (e *ProtocolError) Error() string {
	return fmt.Sprintf("server: %s: %s", e.Code, e.Detail)
}

// Fatal reports whether the connection cannot be resynchronized after
// this error (the reader's position in the stream is unknown), so the
// server replies ERR and closes.
func (e *ProtocolError) Fatal() bool {
	switch e.Code {
	case ErrLineTooLong, ErrTruncated:
		return true
	}
	return false
}

func errProto(code, format string, args ...any) *ProtocolError {
	return &ProtocolError{Code: code, Detail: fmt.Sprintf(format, args...)}
}

// Request is one decoded protocol command.
//
//	TENANT <name> <goal> [<linefactor>]
//	GET <tenant> <key>
//	SET <tenant> <key> <nbytes>\r\n<value>\r\n
//	DEL <tenant> <key>
//	PING
//	QUIT
type Request struct {
	Verb       Verb
	Tenant     string
	Key        string
	Value      []byte
	Goal       float64
	LineFactor int
}

// readLine reads one \n-terminated line of at most MaxLineLen bytes
// (terminator excluded), tolerating an optional \r before the \n.
// A clean end of input is io.EOF; an unterminated trailing line is a
// typed truncation error. A line that arrives in one piece is returned
// as the reader's own buffer, valid only until the next read from br.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		// Longer than the reader's buffer: copy the fragments out
		// before the next read overwrites them.
		line = append([]byte(nil), line...)
		for err == bufio.ErrBufferFull {
			if len(line) > MaxLineLen+1 {
				return nil, errProto(ErrLineTooLong, "line exceeds %d bytes", MaxLineLen)
			}
			var frag []byte
			frag, err = br.ReadSlice('\n')
			line = append(line, frag...)
		}
	}
	if err == io.EOF {
		if len(line) == 0 {
			return nil, io.EOF
		}
		return nil, errProto(ErrTruncated, "unterminated line at end of input")
	}
	if err != nil {
		return nil, err
	}
	line = line[:len(line)-1]
	if len(line) > 0 && line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	if len(line) > MaxLineLen {
		return nil, errProto(ErrLineTooLong, "line exceeds %d bytes", MaxLineLen)
	}
	return line, nil
}

// nextField returns the first field of s at or after byte i and the
// index just past it (an empty field when none is left). Fields are
// split at runs of unicode.IsSpace, as strings.Fields splits them.
func nextField(s string, i int) (string, int) {
	start := strings.IndexFunc(s[i:], notSpace)
	if start < 0 {
		return "", len(s)
	}
	start += i
	end := strings.IndexFunc(s[start:], unicode.IsSpace)
	if end < 0 {
		return s[start:], len(s)
	}
	return s[start : start+end], start + end
}

func notSpace(r rune) bool { return !unicode.IsSpace(r) }

func validTenantName(s string) bool {
	if len(s) == 0 || len(s) > MaxTenantLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

func validKey(s string) bool {
	if len(s) == 0 || len(s) > MaxKeyLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; c <= ' ' || c > '~' {
			return false
		}
	}
	return true
}

func parseTenantKey(req *Request, args []string) *ProtocolError {
	if !validTenantName(args[0]) {
		return errProto(ErrBadTenant, "tenant name %q must be [A-Za-z0-9_-]{1,%d}", args[0], MaxTenantLen)
	}
	if !validKey(args[1]) {
		return errProto(ErrBadKey, "key %q must be 1-%d printable non-space bytes", args[1], MaxKeyLen)
	}
	req.Tenant, req.Key = args[0], args[1]
	return nil
}

// maxFields is the most fields a valid request line has (SET and
// TENANT with a line factor: the verb and three arguments).
const maxFields = 4

// ReadRequest decodes the next request from br. Malformed input yields
// a typed *ProtocolError (never a panic); a clean end of input yields
// io.EOF. This is the surface FuzzServerDecode exercises. The line is
// converted to a string once and every field is a substring of it, so
// a GET or DEL costs one allocation and a SET two (the line and the
// value).
func ReadRequest(br *bufio.Reader) (Request, error) {
	line, err := readLine(br)
	if err != nil {
		return Request{}, err
	}
	s := string(line)
	// fields holds the first maxFields fields; n counts them all, so an
	// over-long line is still rejected with its true argument count.
	var fields [maxFields]string
	n := 0
	for i := 0; ; n++ {
		var f string
		if f, i = nextField(s, i); f == "" {
			break
		}
		if n < maxFields {
			fields[n] = f
		}
	}
	if n == 0 {
		return Request{}, errProto(ErrBadVerb, "empty command line")
	}
	req := Request{Verb: Verb(fields[0])}
	nargs := n - 1
	args := fields[1:]
	switch req.Verb {
	case VerbPing, VerbQuit:
		if nargs != 0 {
			return Request{}, errProto(ErrBadArgs, "%s takes no arguments", req.Verb)
		}
		return req, nil

	case VerbTenant:
		if nargs != 2 && nargs != 3 {
			return Request{}, errProto(ErrBadArgs, "TENANT wants <name> <goal> [<linefactor>], got %d arguments", nargs)
		}
		if !validTenantName(args[0]) {
			return Request{}, errProto(ErrBadTenant, "tenant name %q must be [A-Za-z0-9_-]{1,%d}", args[0], MaxTenantLen)
		}
		req.Tenant = args[0]
		goal, err := strconv.ParseFloat(args[1], 64)
		if err != nil || goal <= 0 || goal >= 1 {
			return Request{}, errProto(ErrBadGoal, "goal %q must be a float in (0,1)", args[1])
		}
		req.Goal = goal
		if nargs == 3 {
			lf, err := strconv.Atoi(args[2])
			if err != nil || lf < 1 || lf > 1024 {
				return Request{}, errProto(ErrBadArgs, "line factor %q must be an integer in [1,1024]", args[2])
			}
			req.LineFactor = lf
		}
		return req, nil

	case VerbGet, VerbDel:
		if nargs != 2 {
			return Request{}, errProto(ErrBadArgs, "%s wants <tenant> <key>, got %d arguments", req.Verb, nargs)
		}
		if pe := parseTenantKey(&req, args[:2]); pe != nil {
			return Request{}, pe
		}
		return req, nil

	case VerbSet:
		if nargs != 3 {
			return Request{}, errProto(ErrBadArgs, "SET wants <tenant> <key> <nbytes>, got %d arguments", nargs)
		}
		if pe := parseTenantKey(&req, args[:2]); pe != nil {
			return Request{}, pe
		}
		n, err := strconv.Atoi(args[2])
		if err != nil || n < 0 || n > MaxValueLen {
			return Request{}, errProto(ErrBadValue, "value length %q must be an integer in [0,%d]", args[2], MaxValueLen)
		}
		buf := make([]byte, n+2)
		if _, err := io.ReadFull(br, buf); err != nil {
			return Request{}, errProto(ErrTruncated, "value body: want %d bytes + CRLF: %v", n, err)
		}
		if buf[n] != '\r' || buf[n+1] != '\n' {
			return Request{}, errProto(ErrTruncated, "value body must end in CRLF")
		}
		req.Value = buf[:n:n]
		return req, nil
	}
	return Request{}, errProto(ErrBadVerb, "unknown verb %q", fields[0])
}

// RefKind maps a verb to the access kind it admits to the simulator:
// GET is a read; SET and DEL mutate the line and are writes.
func (v Verb) RefKind() trace.Kind {
	if v == VerbGet {
		return trace.Read
	}
	return trace.Write
}
