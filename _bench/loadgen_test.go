package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"os"
	"strconv"
	"testing"
)

// fakeServer answers the load generator's GET/SET/DEL requests from a
// per-key value table without allocating per request, so the client's
// allocations can be measured alone. If lose > 0, SETs from the lose-th
// on that overwrite a stored value are acknowledged but dropped, so
// later GETs return the previous version.
func fakeServer(conn net.Conn, keys, valueLen, lose int) {
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)
	vals := make([][]byte, keys)
	present := make([]bool, keys)
	for i := range vals {
		vals[i] = make([]byte, valueLen)
	}
	scratch := make([]byte, valueLen)
	var num [24]byte
	sets := 0
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return
		}
		line = bytes.TrimRight(line, "\r\n")
		verb, rest, _ := bytes.Cut(line, []byte(" "))
		_, rest, _ = bytes.Cut(rest, []byte(" ")) // tenant
		keyTok, _, _ := bytes.Cut(rest, []byte(" "))
		k, _ := parseUint(keyTok[1:])
		switch string(verb) {
		case "GET":
			if !present[k] {
				bw.WriteString("NOTFOUND\r\n")
				break
			}
			bw.WriteString("VALUE HIT ")
			bw.Write(strconv.AppendInt(num[:0], int64(valueLen), 10))
			bw.WriteString("\r\n")
			bw.Write(vals[k])
			bw.WriteString("\r\n")
		case "SET":
			sets++
			dst := vals[k]
			if lose > 0 && sets >= lose && present[k] {
				dst = scratch
			}
			present[k] = true
			if _, err := io.ReadFull(br, dst); err != nil {
				return
			}
			if _, err := br.Discard(2); err != nil {
				return
			}
			bw.WriteString("STORED MISS\r\n")
		case "DEL":
			if !present[k] {
				bw.WriteString("NOTFOUND\r\n")
				break
			}
			present[k] = false
			bw.WriteString("DELETED HIT\r\n")
		case "QUIT":
			bw.WriteString("BYE\r\n")
			bw.Flush()
			return
		}
		if bw.Flush() != nil {
			return
		}
	}
}

// testMix exercises every verb and both reply shapes of GET and DEL.
var testMix = mix{keys: 64, valueLen: 64, getPct: 50, setPct: 35, hotKeys: 8, hotPct: 75}

func newTestClient(t *testing.T, lose int) *client {
	t.Helper()
	cli, srv := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fakeServer(srv, testMix.keys, testMix.valueLen, lose)
	}()
	t.Cleanup(func() {
		cli.Close()
		srv.Close()
		<-done
	})
	return newClient(cli, "t", &testMix, 7, 4096, true)
}

func TestTimedLoopAllocatesNothing(t *testing.T) {
	c := newTestClient(t, 0)
	for i := 0; i < 500; i++ {
		if err := c.step(); err != nil {
			t.Fatal(err)
		}
	}
	c.record = true
	var stepErr error
	allocs := testing.AllocsPerRun(2000, func() {
		if err := c.step(); err != nil {
			stepErr = err
		}
	})
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	if allocs != 0 {
		t.Errorf("timed loop allocates %v times per request, want 0", allocs)
	}
	if c.failed != 0 {
		t.Errorf("%d bad replies from a correct server, first %q on key %d", c.failed, c.firstErr, c.firstErrKey)
	}
	if c.notFound == 0 || c.hits == 0 {
		t.Errorf("mix never hit both reply shapes: %d NOTFOUND, %d HIT", c.notFound, c.hits)
	}
}

func TestClientCatchesStaleRead(t *testing.T) {
	c := newTestClient(t, 40)
	for i := 0; i < 2000 && c.failed == 0; i++ {
		if err := c.step(); err != nil {
			t.Fatal(err)
		}
	}
	if c.failed == 0 {
		t.Fatal("a dropped overwrite went unnoticed")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric names
// and units in step with what the benchmark reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if wl, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the benchmark", w.Name)
		} else if wl.why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json says why %q, the benchmark prints %q", w.Name, w.Why, wl.why)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, the benchmark has %v", names, workloadNames())
	}
}
