// Package server is a molvet fixture seeded with the failure shapes
// the serving layer makes tempting: stamping the verb into a counter
// name with fmt.Sprintf instead of the literal-head label-block idiom
// (one telemetry-names finding), discarding a telemetry sink's Flush
// error on the shutdown path (a sink-errors finding), and panicking in
// library control flow on a malformed request (a panic-discipline
// finding). Its import path ends in internal/server, so the
// suffix-matched scoping treats it exactly like the real package —
// which also means the goroutine and channel below must NOT be
// diagnosed: internal/server is on the concurrency allow-list, because
// the serving layer's contract lets a connection goroutine reach the
// cache only under the server's one lock. The
// literal label-block counter and the documented panic at the bottom
// are the sanctioned patterns and must stay diagnostic-free. The golden
// test pins every expected diagnostic; edits here must be mirrored in
// testdata/server.golden.
package server

import (
	"fmt"

	"molcache/internal/telemetry"
)

// CountRequest stamps the verb into the counter name itself with
// fmt.Sprintf (telemetry-names) instead of a literal name with a
// {label} block.
func CountRequest(reg *telemetry.Registry, verb string) {
	reg.Counter(fmt.Sprintf("molcache_server_requests_total_%s", verb)).Inc()
}

// DrainSink discards the sink's Flush error on the shutdown path
// (sink-errors): a journal that silently failed to flush invalidates
// the replay oracle with no evidence left behind.
func DrainSink(sink *telemetry.JSONLSink) {
	sink.Flush()
}

// Decode crashes on a malformed request in library control flow — an
// undocumented contract the rule must flag: the serving layer returns
// typed protocol errors, it never takes the daemon down on
// attacker-controlled bytes.
func Decode(line string) string {
	if line == "" {
		panic("server: empty request line")
	}
	return line
}

// Serve starts a connection goroutine fed by a request channel —
// allowed here: internal/server is on the concurrency allow-list, so
// this must produce no diagnostics.
func Serve(handle func(string)) chan string {
	reqCh := make(chan string, 16)
	go func() {
		for r := range reqCh {
			handle(r)
		}
	}()
	return reqCh
}

// CountVerb is the sanctioned counter pattern — a literal name whose
// head carries the {label} block — and must produce no diagnostics.
func CountVerb(reg *telemetry.Registry, verb string) {
	reg.Counter("molcache_server_requests_total{verb=" + verb + "}").Inc()
}

// MustVerb documents its panic contract: it panics when verb is empty,
// which the doc comment declares, so panic-discipline stays quiet.
func MustVerb(verb string) string {
	if verb == "" {
		panic("server: empty verb")
	}
	return verb
}
