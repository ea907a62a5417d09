package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"time"
)

// The serving workloads' load generator: closed-loop connections with
// one request outstanding, each owning one tenant. After set-up a
// connection allocates nothing: request lines are rendered ahead of
// time, every SET reuses one value buffer whose stamp bytes carry the
// key and its new version, and replies are parsed in place in a fixed
// read buffer. That keeps heap and GC figures about the server.

const (
	opGet = iota
	opSet
	opDel
	numOps
)

var opNames = [numOps]string{"GET", "SET", "DEL"}

// mix is one workload's request mix over a tenant's keys.
type mix struct {
	keys     int
	valueLen int
	// getPct and setPct are percentages; the rest are DELs.
	getPct, setPct int
	// hotPct percent of operations go to the first hotKeys keys and the
	// rest to the others; hotKeys 0 means uniform over all keys.
	hotKeys, hotPct int
}

// opStream is a connection's deterministic operation sequence
// (splitmix64 over the seed).
type opStream struct{ s uint64 }

func (g *opStream) next() uint64 {
	g.s += 0x9e3779b97f4a7c15
	z := g.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// op draws the next operation.
func (m *mix) op(g *opStream) (verb, key int) {
	r := g.next()
	switch p := int(r % 100); {
	case p < m.getPct:
		verb = opGet
	case p < m.getPct+m.setPct:
		verb = opSet
	default:
		verb = opDel
	}
	k := g.next()
	switch {
	case m.hotKeys == 0:
		key = int(k % uint64(m.keys))
	case int(k%100) < m.hotPct:
		key = int((k >> 8) % uint64(m.hotKeys))
	default:
		key = m.hotKeys + int((k>>8)%uint64(m.keys-m.hotKeys))
	}
	return verb, key
}

// stampLen is the value prefix holding the version and the key, each
// as eight hex digits.
const stampLen = 16

// sampledSpan is a request a traced connection recorded as a span.
type sampledSpan struct {
	verb       int
	start, end time.Time
}

// client is one closed-loop connection.
type client struct {
	conn net.Conn
	m    *mix
	gen  opStream
	// hdr[off[v*keys+k]:off[v*keys+k+1]] is verb v's request line for
	// key k (for SET, up to and including the CRLF before the value).
	hdr   []byte
	off   []uint32
	value []byte // the shared SET body: stamp, filler, CRLF
	wbuf  []byte
	rbuf  []byte
	r, w  int
	// ver is the version this connection last stored per key; 0 means
	// the key is absent.
	ver     []uint32
	lastVer uint32

	ops, failed, hits, notFound int64
	firstErr                    string
	firstErrKey                 int

	// Timed-phase samples; record is false outside the timed phase.
	record bool
	lat    []int64 // ns
	verbs  []uint8
	// sliceStart[i] is when timed request i*sliceOps was sent; lastEnd
	// is when the last timed reply arrived.
	sliceStart []time.Time
	lastEnd    time.Time
	sampled    []sampledSpan // every spanEvery-th timed request, when traced
}

// sliceOps is the number of consecutive timed requests of one
// connection that form one unit of work.
const sliceOps = 500

// spanEvery samples one timed request in this many as a span.
const spanEvery = 64

func keyName(k int) string { return fmt.Sprintf("k%05d", k) }

// newClient renders the tenant's request lines and sizes every buffer
// for timedOps recorded requests.
func newClient(conn net.Conn, tenant string, m *mix, seed uint64, timedOps int, traced bool) *client {
	c := &client{
		conn:  conn,
		m:     m,
		gen:   opStream{s: seed},
		off:   make([]uint32, 0, numOps*m.keys+1),
		value: make([]byte, m.valueLen+2),
		rbuf:  make([]byte, 64<<10),
		ver:   make([]uint32, m.keys),
		lat:   make([]int64, 0, timedOps),
		verbs: make([]uint8, 0, timedOps),

		sliceStart: make([]time.Time, 0, timedOps/sliceOps+1),
	}
	if traced {
		c.sampled = make([]sampledSpan, 0, timedOps/spanEvery+1)
	}
	for v := 0; v < numOps; v++ {
		for k := 0; k < m.keys; k++ {
			c.off = append(c.off, uint32(len(c.hdr)))
			c.hdr = append(c.hdr, opNames[v]...)
			c.hdr = append(c.hdr, ' ')
			c.hdr = append(c.hdr, tenant...)
			c.hdr = append(c.hdr, ' ')
			c.hdr = append(c.hdr, keyName(k)...)
			if v == opSet {
				c.hdr = append(c.hdr, ' ')
				c.hdr = strconv.AppendInt(c.hdr, int64(m.valueLen), 10)
			}
			c.hdr = append(c.hdr, '\r', '\n')
		}
	}
	c.off = append(c.off, uint32(len(c.hdr)))
	for i := stampLen; i < m.valueLen; i++ {
		c.value[i] = 'a' + byte(i%26)
	}
	c.value[m.valueLen], c.value[m.valueLen+1] = '\r', '\n'
	c.wbuf = make([]byte, 0, 512+len(c.value))
	return c
}

// header returns verb v's pre-rendered request line for key k.
func (c *client) header(v, k int) []byte {
	i := v*c.m.keys + k
	return c.hdr[c.off[i]:c.off[i+1]]
}

// putHex writes x as eight hex digits.
func putHex(b []byte, x uint32) {
	const digits = "0123456789abcdef"
	for i := 7; i >= 0; i-- {
		b[i] = digits[x&0xf]
		x >>= 4
	}
}

// parseHex reads eight hex digits; ok is false on any other byte.
func parseHex(b []byte) (x uint32, ok bool) {
	for _, ch := range b[:8] {
		switch {
		case ch >= '0' && ch <= '9':
			x = x<<4 | uint32(ch-'0')
		case ch >= 'a' && ch <= 'f':
			x = x<<4 | uint32(ch-'a'+10)
		default:
			return 0, false
		}
	}
	return x, true
}

// parseUint reads a decimal count; ok is false if b is not one.
func parseUint(b []byte) (n int, ok bool) {
	if len(b) == 0 || len(b) > 9 {
		return 0, false
	}
	for _, ch := range b {
		if ch < '0' || ch > '9' {
			return 0, false
		}
		n = n*10 + int(ch-'0')
	}
	return n, true
}

var errReplyTooLong = errors.New("loadgen: reply exceeds the read buffer")

// fill reads more reply bytes, compacting the buffer first.
func (c *client) fill() error {
	if c.r > 0 {
		c.w = copy(c.rbuf, c.rbuf[c.r:c.w])
		c.r = 0
	}
	if c.w == len(c.rbuf) {
		return errReplyTooLong
	}
	n, err := c.conn.Read(c.rbuf[c.w:])
	c.w += n
	if n > 0 {
		return nil
	}
	return err
}

// readLine returns the next reply line without its CR LF. The slice is
// valid until the next read.
func (c *client) readLine() ([]byte, error) {
	for {
		if i := bytes.IndexByte(c.rbuf[c.r:c.w], '\n'); i >= 0 {
			line := c.rbuf[c.r : c.r+i]
			c.r += i + 1
			if n := len(line); n > 0 && line[n-1] == '\r' {
				line = line[:n-1]
			}
			return line, nil
		}
		if err := c.fill(); err != nil {
			return nil, err
		}
	}
}

// readN returns the next n reply bytes, valid until the next read.
func (c *client) readN(n int) ([]byte, error) {
	for c.w-c.r < n {
		if err := c.fill(); err != nil {
			return nil, err
		}
	}
	b := c.rbuf[c.r : c.r+n]
	c.r += n
	return b, nil
}

// mismatch counts a reply that breaks the output check.
func (c *client) mismatch(reason string, key int) {
	c.failed++
	if c.firstErr == "" {
		c.firstErr, c.firstErrKey = reason, key
	}
}

// hitToken parses HIT or MISS.
func (c *client) hitToken(tok []byte, key int) {
	switch string(tok) {
	case "HIT":
		c.hits++
	case "MISS":
	default:
		c.mismatch("bad hit token", key)
	}
}

// step issues the stream's next operation and checks the reply. A
// non-nil error means the connection itself failed.
func (c *client) step() error {
	verb, key := c.m.op(&c.gen)
	return c.do(verb, key)
}

// do sends one request, waits for its reply and checks it against what
// this connection last stored under key.
func (c *client) do(verb, key int) error {
	buf := append(c.wbuf[:0], c.header(verb, key)...)
	var newVer uint32
	if verb == opSet {
		c.lastVer++
		newVer = c.lastVer
		putHex(c.value[0:8], newVer)
		putHex(c.value[8:16], uint32(key))
		buf = append(buf, c.value...)
	}
	t0 := time.Now()
	if c.record && len(c.lat)%sliceOps == 0 {
		c.sliceStart = append(c.sliceStart, t0)
	}
	if _, err := c.conn.Write(buf); err != nil {
		return err
	}
	line, err := c.readLine()
	if err != nil {
		return err
	}
	c.ops++
	want := c.ver[key]
	switch verb {
	case opGet:
		if string(line) == "NOTFOUND" {
			c.notFound++
			if want != 0 {
				c.mismatch("GET NOTFOUND for a stored key", key)
			}
			break
		}
		// VALUE HIT|MISS <n>
		if len(line) < 12 || string(line[:6]) != "VALUE " {
			c.mismatch("malformed GET reply", key)
			break
		}
		rest := line[6:]
		sp := bytes.IndexByte(rest, ' ')
		if sp < 0 {
			c.mismatch("malformed GET reply", key)
			break
		}
		c.hitToken(rest[:sp], key)
		n, ok := parseUint(rest[sp+1:])
		if !ok {
			c.mismatch("malformed GET length", key)
			break
		}
		body, err := c.readN(n + 2)
		if err != nil {
			return err
		}
		switch {
		case body[n] != '\r' || body[n+1] != '\n':
			c.mismatch("GET value not CRLF-terminated", key)
		case want == 0:
			c.mismatch("GET returned a value for a deleted or unset key", key)
		case n != c.m.valueLen:
			c.mismatch("GET value has the wrong length", key)
		default:
			v, ok1 := parseHex(body[0:8])
			k, ok2 := parseHex(body[8:16])
			if !ok1 || !ok2 || v != want || int(k) != key {
				c.mismatch("GET returned another version than the last SET", key)
			}
		}
	case opSet:
		if len(line) < 7 || string(line[:7]) != "STORED " {
			c.mismatch("bad SET reply", key)
			break
		}
		c.hitToken(line[7:], key)
		c.ver[key] = newVer
	case opDel:
		if string(line) == "NOTFOUND" {
			c.notFound++
			if want != 0 {
				c.mismatch("DEL NOTFOUND for a stored key", key)
			}
			break
		}
		if len(line) < 8 || string(line[:8]) != "DELETED " {
			c.mismatch("bad DEL reply", key)
			break
		}
		c.hitToken(line[8:], key)
		if want == 0 {
			c.mismatch("DEL deleted a key that was not stored", key)
		}
		c.ver[key] = 0
	}
	if c.record {
		t1 := time.Now()
		c.lastEnd = t1
		c.lat = append(c.lat, int64(t1.Sub(t0)))
		c.verbs = append(c.verbs, uint8(verb))
		if c.sampled != nil && len(c.lat)%spanEvery == 1 {
			c.sampled = append(c.sampled, sampledSpan{verb: verb, start: t0, end: t1})
		}
	}
	return nil
}

// slices returns each timed slice's duration in seconds and its median
// and 90th-percentile request latency in µs.
func (c *client) slices() (dur, p50, p90 []float64) {
	for i, start := range c.sliceStart {
		end := c.lastEnd
		if i+1 < len(c.sliceStart) {
			end = c.sliceStart[i+1]
		}
		lat := append([]int64(nil), c.lat[i*sliceOps:min((i+1)*sliceOps, len(c.lat))]...)
		sortInt64s(lat)
		dur = append(dur, end.Sub(start).Seconds())
		p50 = append(p50, nsQuantile(lat, 0.5)/1e3)
		p90 = append(p90, nsQuantile(lat, 0.9)/1e3)
	}
	return dur, p50, p90
}

// tenant registers the connection's tenant (set-up only).
func (c *client) tenant(name string, goal float64, lineFactor int) error {
	line := fmt.Sprintf("TENANT %s %g", name, goal)
	if lineFactor > 0 {
		line += fmt.Sprintf(" %d", lineFactor)
	}
	if _, err := c.conn.Write([]byte(line + "\r\n")); err != nil {
		return err
	}
	reply, err := c.readLine()
	if err != nil {
		return err
	}
	if !bytes.HasPrefix(reply, []byte("OK ")) {
		return fmt.Errorf("TENANT %s: %q", name, reply)
	}
	return nil
}

// quit sends QUIT and closes the connection.
func (c *client) quit() error {
	if _, err := c.conn.Write([]byte("QUIT\r\n")); err != nil {
		return err
	}
	reply, err := c.readLine()
	if err != nil {
		return err
	}
	if string(reply) != "BYE" {
		return fmt.Errorf("QUIT: %q", reply)
	}
	return c.conn.Close()
}
