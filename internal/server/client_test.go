package server

import (
	"bufio"
	"bytes"
	"net"
	"testing"
)

// fakeServer answers each request line read from conn with the next
// canned reply, then closes its end.
func fakeServer(t *testing.T, conn net.Conn, replies ...string) {
	t.Helper()
	go func() {
		defer conn.Close()
		br := bufio.NewReader(conn)
		for _, r := range replies {
			if _, err := br.ReadString('\n'); err != nil {
				return
			}
			if _, err := conn.Write([]byte(r)); err != nil {
				return
			}
		}
	}()
}

func TestClientGetChecksValueFraming(t *testing.T) {
	cases := []struct {
		name  string
		reply string
		want  []byte // nil: Get must fail
	}{
		{"framed", "VALUE HIT 5\r\nhello\r\n", []byte("hello")},
		{"framed empty", "VALUE MISS 0\r\n\r\n", []byte{}},
		{"body longer than announced", "VALUE HIT 3\r\nhello\r\n", nil},
		{"bare LF terminator", "VALUE HIT 5\r\nhello\nX", nil},
		{"no terminator", "VALUE HIT 5\r\nhelloXY", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			client, srv := net.Pipe()
			fakeServer(t, srv, tc.reply)
			c := newClient(client)
			defer c.conn.Close()
			v, _, found, err := c.Get("web", "k")
			if tc.want == nil {
				if err == nil {
					t.Fatalf("Get accepted reply %q as value %q", tc.reply, v)
				}
				return
			}
			if err != nil || !found || !bytes.Equal(v, tc.want) {
				t.Fatalf("Get = %q found=%v err=%v, want %q", v, found, err, tc.want)
			}
		})
	}
}
