package server

import (
	"bufio"
	"bytes"
	"errors"
	"hash/fnv"
	"io"
	"strings"
	"testing"

	"molcache/internal/addr"
)

func decodeOne(t *testing.T, input string) (Request, error) {
	t.Helper()
	return ReadRequest(bufio.NewReader(strings.NewReader(input)))
}

func TestReadRequestValid(t *testing.T) {
	cases := []struct {
		name  string
		input string
		want  Request
	}{
		{"ping", "PING\r\n", Request{Verb: VerbPing}},
		{"quit bare LF", "QUIT\n", Request{Verb: VerbQuit}},
		{"tenant", "TENANT web 0.05\r\n", Request{Verb: VerbTenant, Tenant: "web", Goal: 0.05}},
		{"tenant with line factor", "TENANT batch-1 0.4 4\r\n",
			Request{Verb: VerbTenant, Tenant: "batch-1", Goal: 0.4, LineFactor: 4}},
		{"get", "GET web user:17\r\n", Request{Verb: VerbGet, Tenant: "web", Key: "user:17"}},
		{"del", "DEL web user:17\r\n", Request{Verb: VerbDel, Tenant: "web", Key: "user:17"}},
		{"set", "SET web k 5\r\nhello\r\n",
			Request{Verb: VerbSet, Tenant: "web", Key: "k", Value: []byte("hello")}},
		{"set empty value", "SET web k 0\r\n\r\n",
			Request{Verb: VerbSet, Tenant: "web", Key: "k", Value: []byte{}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := decodeOne(t, tc.input)
			if err != nil {
				t.Fatalf("ReadRequest(%q): %v", tc.input, err)
			}
			if got.Verb != tc.want.Verb || got.Tenant != tc.want.Tenant ||
				got.Key != tc.want.Key || got.Goal != tc.want.Goal ||
				got.LineFactor != tc.want.LineFactor || !bytes.Equal(got.Value, tc.want.Value) {
				t.Errorf("ReadRequest(%q) = %+v, want %+v", tc.input, got, tc.want)
			}
		})
	}
}

func TestReadRequestMalformed(t *testing.T) {
	longKey := strings.Repeat("k", MaxKeyLen+1)
	longLine := strings.Repeat("x", MaxLineLen+10)
	cases := []struct {
		name     string
		input    string
		wantCode string
	}{
		{"empty line", "\r\n", ErrBadVerb},
		{"unknown verb", "FROB a b\r\n", ErrBadVerb},
		{"lowercase verb", "get web k\r\n", ErrBadVerb},
		{"ping with args", "PING now\r\n", ErrBadArgs},
		{"get missing key", "GET web\r\n", ErrBadArgs},
		{"get extra args", "GET web k1 k2\r\n", ErrBadArgs},
		{"bad tenant chars", "GET we$b k\r\n", ErrBadTenant},
		{"tenant too long", "GET " + strings.Repeat("t", MaxTenantLen+1) + " k\r\n", ErrBadTenant},
		{"oversized key", "GET web " + longKey + "\r\n", ErrBadKey},
		{"key with control byte", "GET web k\x01ey\r\n", ErrBadKey},
		{"tenant goal zero", "TENANT web 0\r\n", ErrBadGoal},
		{"tenant goal one", "TENANT web 1.0\r\n", ErrBadGoal},
		{"tenant goal garbage", "TENANT web fast\r\n", ErrBadGoal},
		{"tenant bad line factor", "TENANT web 0.1 -2\r\n", ErrBadArgs},
		{"set negative length", "SET web k -1\r\n", ErrBadValue},
		{"set oversized length", "SET web k 1048577\r\n", ErrBadValue},
		{"set garbage length", "SET web k five\r\n", ErrBadValue},
		{"set truncated value", "SET web k 10\r\nabc", ErrTruncated},
		{"set missing terminator", "SET web k 3\r\nabcXY", ErrTruncated},
		{"unterminated line", "GET web k", ErrTruncated},
		{"line too long", longLine + "\r\n", ErrLineTooLong},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodeOne(t, tc.input)
			var pe *ProtocolError
			if !errors.As(err, &pe) {
				t.Fatalf("ReadRequest(%.40q): got %v, want *ProtocolError", tc.input, err)
			}
			if pe.Code != tc.wantCode {
				t.Errorf("ReadRequest(%.40q): code %q, want %q", tc.input, pe.Code, tc.wantCode)
			}
		})
	}
}

func TestReadRequestEOF(t *testing.T) {
	_, err := decodeOne(t, "")
	if err != io.EOF {
		t.Fatalf("empty input: got %v, want io.EOF", err)
	}
}

func TestReadRequestStream(t *testing.T) {
	br := bufio.NewReader(strings.NewReader("PING\r\nSET a-1 k 2\r\nhi\r\nGET a-1 k\r\n"))
	verbs := []Verb{VerbPing, VerbSet, VerbGet}
	for i, want := range verbs {
		req, err := ReadRequest(br)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if req.Verb != want {
			t.Fatalf("request %d: verb %s, want %s", i, req.Verb, want)
		}
	}
	if _, err := ReadRequest(br); err != io.EOF {
		t.Fatalf("stream end: got %v, want io.EOF", err)
	}
}

func TestProtocolErrorFatal(t *testing.T) {
	fatal := []string{ErrLineTooLong, ErrTruncated}
	for _, code := range fatal {
		if !(&ProtocolError{Code: code}).Fatal() {
			t.Errorf("code %s must be fatal", code)
		}
	}
	for _, code := range []string{ErrBadVerb, ErrBadArgs, ErrBadKey, ErrUnknownTenant} {
		if (&ProtocolError{Code: code}).Fatal() {
			t.Errorf("code %s must not be fatal", code)
		}
	}
}

func TestBlockAddrDeterministicAndConfined(t *testing.T) {
	a1 := blockAddr(3, "user:17", 26, 64)
	a2 := blockAddr(3, "user:17", 26, 64)
	if a1 != a2 {
		t.Fatalf("blockAddr not deterministic: %#x vs %#x", a1, a2)
	}
	// The in-place hash is FNV-64a: a journal written before it replays
	// to the same refs.
	for _, key := range []string{"", "user:17", "k00042", strings.Repeat("\xfe", 250)} {
		h := fnv.New64a()
		h.Write([]byte(key))
		want := addr.LineAlign(uint64(3)<<asidShift|h.Sum64()&addr.Mask(26), 64)
		if got := blockAddr(3, key, 26, 64); got != want {
			t.Errorf("blockAddr(%q) = %#x, hash/fnv gives %#x", key, got, want)
		}
	}
	if a1%64 != 0 {
		t.Errorf("blockAddr not line-aligned: %#x", a1)
	}
	if base := a1 >> 36; base != 3 {
		t.Errorf("blockAddr outside ASID base: %#x (asid bits %d)", a1, base)
	}
	if blockAddr(4, "user:17", 26, 64)>>36 != 4 {
		t.Errorf("different ASIDs must map to disjoint bases")
	}
}

func TestReadRequestWhitespace(t *testing.T) {
	// Fields split at every unicode.IsSpace run, as strings.Fields
	// splits them: tabs, vertical tabs, form feeds, stray CRs and the
	// Latin-1 and Unicode spaces all separate arguments.
	cases := []struct {
		input string
		want  Request
	}{
		{"GET\tweb\tk\r\n", Request{Verb: VerbGet, Tenant: "web", Key: "k"}},
		{"  GET  web   k  \r\n", Request{Verb: VerbGet, Tenant: "web", Key: "k"}},
		{"GET web\vk\f\r\n", Request{Verb: VerbGet, Tenant: "web", Key: "k"}},
		{"GET web\rk\r\n", Request{Verb: VerbGet, Tenant: "web", Key: "k"}},
		{"GET web k　\r\n", Request{Verb: VerbGet, Tenant: "web", Key: "k"}},
		{"DEL web \u0085k\r\n", Request{Verb: VerbDel, Tenant: "web", Key: "k"}},
	}
	for _, tc := range cases {
		got, err := decodeOne(t, tc.input)
		if err != nil {
			t.Errorf("ReadRequest(%q): %v", tc.input, err)
			continue
		}
		if got.Verb != tc.want.Verb || got.Tenant != tc.want.Tenant || got.Key != tc.want.Key {
			t.Errorf("ReadRequest(%q) = %+v, want %+v", tc.input, got, tc.want)
		}
	}
	// Invalid UTF-8 is not a separator: the key keeps the byte and is
	// then rejected as non-printable.
	if _, err := decodeOne(t, "GET web k\xffey\r\n"); err == nil {
		t.Error("ReadRequest accepted a key holding an invalid UTF-8 byte")
	}
}

// TestReadRequestAllocs pins the decoder's garbage: a GET or DEL costs
// the one string conversion of its line, a SET that plus its value.
func TestReadRequestAllocs(t *testing.T) {
	cases := []struct {
		name  string
		input string
		want  float64
	}{
		{"get", "GET web user:17\r\n", 1},
		{"del", "DEL web user:17\r\n", 1},
		{"set", "SET web user:17 64\r\n" + strings.Repeat("v", 64) + "\r\n", 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			br := bufio.NewReader(&cycleReader{data: []byte(tc.input)})
			got := testing.AllocsPerRun(200, func() {
				if _, err := ReadRequest(br); err != nil {
					t.Fatal(err)
				}
			})
			if got != tc.want {
				t.Errorf("%s: %v allocations per request, want %v", tc.name, got, tc.want)
			}
		})
	}
}

// cycleReader repeats data forever without allocating.
type cycleReader struct {
	data []byte
	off  int
}

func (r *cycleReader) Read(p []byte) (int, error) {
	n := copy(p, r.data[r.off:])
	r.off = (r.off + n) % len(r.data)
	return n, nil
}
