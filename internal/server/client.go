package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"

	"molcache/internal/rng"
)

// Client is a plain molcached protocol client (one connection, one
// outstanding request at a time). cmd/molcached's -demo mode,
// servertest and the race harness all drive the server through it.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

// Dial connects to a molcached server.
func Dial(address string) (*Client, error) {
	conn, err := net.Dial("tcp", address)
	if err != nil {
		return nil, err
	}
	return newClient(conn), nil
}

func newClient(conn net.Conn) *Client {
	return &Client{
		conn: conn,
		br:   bufio.NewReader(conn),
		bw:   bufio.NewWriter(conn),
	}
}

// Close sends QUIT best-effort and closes the connection.
func (c *Client) Close() error {
	fmt.Fprintf(c.bw, "QUIT\r\n")
	c.bw.Flush()
	return c.conn.Close()
}

func (c *Client) roundTrip(line string) ([]string, error) {
	if _, err := c.bw.WriteString(line); err != nil {
		return nil, err
	}
	if _, err := c.bw.WriteString("\r\n"); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	return c.readReply()
}

func (c *Client) readReply() ([]string, error) {
	reply, err := readLine(c.br)
	if err != nil {
		return nil, err
	}
	fields := strings.Fields(string(reply))
	if len(fields) == 0 {
		return nil, fmt.Errorf("server: empty reply")
	}
	if fields[0] == "ERR" {
		pe := &ProtocolError{Code: "unknown"}
		if len(fields) > 1 {
			pe.Code = fields[1]
		}
		if len(fields) > 2 {
			pe.Detail = strings.Join(fields[2:], " ")
		}
		return nil, pe
	}
	return fields, nil
}

func parseHit(tok string) (bool, error) {
	switch tok {
	case "HIT":
		return true, nil
	case "MISS":
		return false, nil
	}
	return false, fmt.Errorf("server: bad hit token %q", tok)
}

// Tenant registers (or updates the goal of) a tenant and returns its
// ASID. lineFactor 0 keeps the cache default.
func (c *Client) Tenant(name string, goal float64, lineFactor int) (uint16, error) {
	line := fmt.Sprintf("TENANT %s %g", name, goal)
	if lineFactor > 0 {
		line += fmt.Sprintf(" %d", lineFactor)
	}
	fields, err := c.roundTrip(line)
	if err != nil {
		return 0, err
	}
	if len(fields) != 2 || fields[0] != "OK" {
		return 0, fmt.Errorf("server: bad TENANT reply %v", fields)
	}
	asid, err := strconv.ParseUint(fields[1], 10, 16)
	if err != nil {
		return 0, fmt.Errorf("server: bad ASID in TENANT reply %v", fields)
	}
	return uint16(asid), nil
}

// Set stores value under the tenant's key; hit reports the cache model
// outcome for the admitted write.
func (c *Client) Set(tenant, key string, value []byte) (hit bool, err error) {
	if _, err := fmt.Fprintf(c.bw, "SET %s %s %d\r\n", tenant, key, len(value)); err != nil {
		return false, err
	}
	if _, err := c.bw.Write(value); err != nil {
		return false, err
	}
	if _, err := c.bw.WriteString("\r\n"); err != nil {
		return false, err
	}
	if err := c.bw.Flush(); err != nil {
		return false, err
	}
	fields, err := c.readReply()
	if err != nil {
		return false, err
	}
	if len(fields) != 2 || fields[0] != "STORED" {
		return false, fmt.Errorf("server: bad SET reply %v", fields)
	}
	return parseHit(fields[1])
}

// Get fetches the tenant's key. found is false when the key is absent
// (such a request is not admitted to the cache model).
func (c *Client) Get(tenant, key string) (value []byte, hit, found bool, err error) {
	fields, err := c.roundTrip(fmt.Sprintf("GET %s %s", tenant, key))
	if err != nil {
		return nil, false, false, err
	}
	if fields[0] == "NOTFOUND" {
		return nil, false, false, nil
	}
	if len(fields) != 3 || fields[0] != "VALUE" {
		return nil, false, false, fmt.Errorf("server: bad GET reply %v", fields)
	}
	if hit, err = parseHit(fields[1]); err != nil {
		return nil, false, false, err
	}
	n, err := strconv.Atoi(fields[2])
	if err != nil || n < 0 || n > MaxValueLen {
		return nil, false, false, fmt.Errorf("server: bad value length in GET reply %v", fields)
	}
	buf := make([]byte, n+2)
	if _, err := io.ReadFull(c.br, buf); err != nil {
		return nil, false, false, err
	}
	if buf[n] != '\r' || buf[n+1] != '\n' {
		return nil, false, false, fmt.Errorf("server: GET value of %d bytes is not followed by CRLF", n)
	}
	return buf[:n:n], hit, true, nil
}

// Del removes the tenant's key; found is false when it was absent.
func (c *Client) Del(tenant, key string) (found bool, err error) {
	fields, err := c.roundTrip(fmt.Sprintf("DEL %s %s", tenant, key))
	if err != nil {
		return false, err
	}
	switch fields[0] {
	case "NOTFOUND":
		return false, nil
	case "DELETED":
		return true, nil
	}
	return false, fmt.Errorf("server: bad DEL reply %v", fields)
}

// Ping round-trips a PING.
func (c *Client) Ping() error {
	fields, err := c.roundTrip("PING")
	if err != nil {
		return err
	}
	if len(fields) != 1 || fields[0] != "PONG" {
		return fmt.Errorf("server: bad PING reply %v", fields)
	}
	return nil
}

// DriveStats summarizes one Drive run.
type DriveStats struct {
	Sets, Gets, Dels int
	Hits, Misses     int
	NotFound         int
}

// Drive runs a deterministic skewed workload against one tenant: a
// SET/GET/DEL mix over `keys` keys where 3 in 4 operations touch the
// hot eighth of the key space (the same skew the differential traces
// use). Deterministic in seed.
func (c *Client) Drive(tenant string, seed uint64, ops, keys int) (DriveStats, error) {
	var st DriveStats
	if keys < 1 {
		keys = 1
	}
	src := rng.New(seed)
	count := func(hit bool) {
		if hit {
			st.Hits++
		} else {
			st.Misses++
		}
	}
	for i := 0; i < ops; i++ {
		idx := src.Intn(keys)
		if src.Intn(4) > 0 {
			idx = src.Intn(keys/8 + 1)
		}
		key := fmt.Sprintf("key-%d", idx)
		switch op := src.Intn(10); {
		case op < 4: // 40% SET
			val := []byte(fmt.Sprintf("val-%s-%d", tenant, i))
			hit, err := c.Set(tenant, key, val)
			if err != nil {
				return st, err
			}
			st.Sets++
			count(hit)
		case op < 9: // 50% GET
			_, hit, found, err := c.Get(tenant, key)
			if err != nil {
				return st, err
			}
			st.Gets++
			if !found {
				st.NotFound++
			} else {
				count(hit)
			}
		default: // 10% DEL
			found, err := c.Del(tenant, key)
			if err != nil {
				return st, err
			}
			st.Dels++
			if !found {
				st.NotFound++
			}
		}
	}
	return st, nil
}
