// Server behavior tests: protocol semantics end to end over real TCP
// connections, the tenant admin surface, obs integration, the served
// path's allocation budget, and the race-serve harness (TestRaceServe
// and TestShutdownUnderLoad, run under -race by `make race-serve`)
// proving N concurrent clients leave a gap-free journal whose access
// count matches the served /metrics totals and the simulator's clock.
package server_test

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"molcache/internal/server"
	"molcache/internal/server/servertest"
	"molcache/internal/snapshot"
	"molcache/internal/telemetry"
)

const servertestTimeout = 5 * time.Second

func TestServeBasics(t *testing.T) {
	f := servertest.Boot(t, servertest.Options{})
	c := f.Client()

	if err := c.Ping(); err != nil {
		t.Fatalf("PING: %v", err)
	}

	// Data verbs before TENANT registration must be refused.
	var pe *server.ProtocolError
	if _, _, _, err := c.Get("web", "k"); !errors.As(err, &pe) || pe.Code != server.ErrUnknownTenant {
		t.Fatalf("GET before TENANT: got %v, want %s", err, server.ErrUnknownTenant)
	}

	asid, err := c.Tenant("web", 0.1, 2)
	if err != nil {
		t.Fatalf("TENANT: %v", err)
	}
	if asid != 1 {
		t.Fatalf("first tenant ASID = %d, want 1", asid)
	}

	// SET → GET round-trips the value; GET of an absent key is NOTFOUND.
	if _, err := c.Set("web", "user:17", []byte("hello")); err != nil {
		t.Fatalf("SET: %v", err)
	}
	v, _, found, err := c.Get("web", "user:17")
	if err != nil || !found || !bytes.Equal(v, []byte("hello")) {
		t.Fatalf("GET: value=%q found=%v err=%v", v, found, err)
	}
	if _, _, found, err := c.Get("web", "missing"); err != nil || found {
		t.Fatalf("GET absent: found=%v err=%v", found, err)
	}

	// An immediate re-GET of a just-SET key must hit the cache model.
	if _, hit, _, err := c.Get("web", "user:17"); err != nil || !hit {
		t.Fatalf("GET after SET: hit=%v err=%v (a just-written line must be resident)", hit, err)
	}

	// DEL removes the key; a second DEL is NOTFOUND.
	if found, err := c.Del("web", "user:17"); err != nil || !found {
		t.Fatalf("DEL: found=%v err=%v", found, err)
	}
	if found, err := c.Del("web", "user:17"); err != nil || found {
		t.Fatalf("DEL absent: found=%v err=%v", found, err)
	}

	// Empty and binary values survive the length-prefixed framing.
	if _, err := c.Set("web", "empty", nil); err != nil {
		t.Fatalf("SET empty: %v", err)
	}
	if v, _, found, err := c.Get("web", "empty"); err != nil || !found || len(v) != 0 {
		t.Fatalf("GET empty: value=%q found=%v err=%v", v, found, err)
	}
	raw := []byte("a\r\nb\x00c")
	if _, err := c.Set("web", "raw", raw); err != nil {
		t.Fatalf("SET binary: %v", err)
	}
	if v, _, _, err := c.Get("web", "raw"); err != nil || !bytes.Equal(v, raw) {
		t.Fatalf("GET binary: value=%q err=%v", v, err)
	}
}

func TestTenantAdmin(t *testing.T) {
	f := servertest.Boot(t, servertest.Options{})
	c := f.Client()

	asid, err := c.Tenant("web", 0.1, 2)
	if err != nil {
		t.Fatalf("TENANT: %v", err)
	}

	// Re-registering with the same line factor is idempotent (same ASID);
	// a different line factor conflicts (fixed for the region's life).
	again, err := c.Tenant("web", 0.1, 2)
	if err != nil || again != asid {
		t.Fatalf("re-TENANT: asid=%d err=%v, want %d", again, err, asid)
	}
	var pe *server.ProtocolError
	if _, err := c.Tenant("web", 0.1, 8); !errors.As(err, &pe) || pe.Code != server.ErrTenantConflict {
		t.Fatalf("TENANT line-factor conflict: got %v, want %s", err, server.ErrTenantConflict)
	}

	// A goal update keeps the ASID and lands in the controller.
	if again, err = c.Tenant("web", 0.25, 0); err != nil || again != asid {
		t.Fatalf("TENANT goal update: asid=%d err=%v", again, err)
	}

	// Distinct tenants get distinct ASIDs and isolated keyspaces.
	asid2, err := c.Tenant("batch", 0.4, 0)
	if err != nil {
		t.Fatalf("TENANT batch: %v", err)
	}
	if asid2 == asid {
		t.Fatalf("tenant ASIDs collide: %d", asid2)
	}
	if _, err := c.Set("web", "k", []byte("web-val")); err != nil {
		t.Fatal(err)
	}
	if _, _, found, err := c.Get("batch", "k"); err != nil || found {
		t.Fatalf("cross-tenant GET leaked: found=%v err=%v", found, err)
	}

	if err := f.Server.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := f.Server.Sim().Controller.Goal(asid); got != 0.25 {
		t.Errorf("controller goal after update = %v, want 0.25", got)
	}
}

func TestShutdownRefusesNewWork(t *testing.T) {
	f := servertest.Boot(t, servertest.Options{NoCheckpoint: true})
	c := f.Client()
	if _, err := c.Tenant("web", 0.1, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Server.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The old connection is force-closed and new dials are refused.
	if err := c.Ping(); err == nil {
		t.Error("PING succeeded after shutdown")
	}
	if _, err := server.Dial(f.Server.Addr()); err == nil {
		t.Error("Dial succeeded after shutdown")
	}
	// Shutdown is idempotent.
	if err := f.Server.Shutdown(); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
}

// TestColdStartOnCorruptCheckpoint drives boot's fallback: a checkpoint
// with one flipped byte is rejected with a typed error, counted on the
// server plane, and the server cold-starts and serves.
func TestColdStartOnCorruptCheckpoint(t *testing.T) {
	f := servertest.Boot(t, servertest.Options{Obs: true})
	c := f.Client()
	if _, err := c.Tenant("web", 0.2, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Set("web", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := f.Server.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	data, err := os.ReadFile(f.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(f.CheckpointPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f.Reboot()

	if f.Server.WarmStarted() {
		t.Fatal("booted warm from a corrupted checkpoint")
	}
	var se *snapshot.Error
	if !errors.As(f.Server.RestoreErr(), &se) {
		t.Errorf("RestoreErr() = %v, want a *snapshot.Error", f.Server.RestoreErr())
	}
	body, err := servertest.GetBody(f.Server.ObsURL() + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	snap, err := telemetry.ParsePrometheus(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("parse /metrics: %v", err)
	}
	if got := snap.Counters["molcache_server_restore_failures_total"]; got != 1 {
		t.Errorf("molcache_server_restore_failures_total = %v, want 1", got)
	}

	c = f.Client()
	if _, err := c.Tenant("web", 0.2, 0); err != nil {
		t.Fatalf("TENANT after cold start: %v", err)
	}
	if _, err := c.Set("web", "k2", []byte("v2")); err != nil {
		t.Fatalf("SET after cold start: %v", err)
	}
	got, _, found, err := c.Get("web", "k2")
	if err != nil || !found || string(got) != "v2" {
		t.Errorf("GET after cold start = %q found=%v err=%v, want \"v2\"", got, found, err)
	}
}

func TestTenantsEndpoint(t *testing.T) {
	f := servertest.Boot(t, servertest.Options{Obs: true})
	f.WaitHealthy(servertestTimeout)
	c := f.Client()
	if _, err := c.Tenant("web", 0.1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Tenant("batch", 0.4, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Drive("web", 7, 200, 32); err != nil {
		t.Fatal(err)
	}
	if err := f.Server.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// The obs plane stays up for post-mortem scraping until Close, and
	// serves the final state.
	var page struct {
		At      uint64 `json:"at"`
		Tenants []struct {
			Name     string  `json:"name"`
			ASID     uint16  `json:"asid"`
			Goal     float64 `json:"goal"`
			Keys     int     `json:"keys"`
			Accesses uint64  `json:"accesses"`
		} `json:"tenants"`
	}
	if err := servertest.GetJSON(f.Server.ObsURL()+"/tenants", &page); err != nil {
		t.Fatalf("GET /tenants: %v", err)
	}
	if len(page.Tenants) != 2 {
		t.Fatalf("got %d tenants, want 2: %+v", len(page.Tenants), page.Tenants)
	}
	web := page.Tenants[0]
	if web.Name != "web" || web.ASID != 1 || web.Goal != 0.1 {
		t.Errorf("tenant[0] = %+v, want web/1/0.1", web)
	}
	if web.Accesses == 0 || web.Keys == 0 {
		t.Errorf("driven tenant shows no activity: %+v", web)
	}
	if page.Tenants[1].Name != "batch" {
		t.Errorf("tenant[1] = %+v, want batch", page.Tenants[1])
	}
	if page.At == 0 {
		t.Error("served state has zero access clock after traffic")
	}
}

// TestObsReadsLiveServer: the introspection plane reads the running
// server when asked. With one tenant registered and a few hundred
// accesses admitted, and no shutdown, /metrics already counts the
// tenant and every access, and /tenants and /healthz report the same
// state.
func TestObsReadsLiveServer(t *testing.T) {
	const accesses = 300
	f := servertest.Boot(t, servertest.Options{NoCheckpoint: true, Obs: true})
	c := f.Client()
	if _, err := c.Tenant("web", 0.2, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < accesses; i++ {
		if _, err := c.Set("web", fmt.Sprintf("k%d", i%40), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	body, err := servertest.GetBody(f.Server.ObsURL() + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	snap, err := telemetry.ParsePrometheus(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("parse /metrics: %v", err)
	}
	if got := snap.Gauges["molcache_server_tenants"]; got != 1 {
		t.Errorf("molcache_server_tenants = %v, want 1", got)
	}
	hits, misses := snap.Counters["molcache_molecular_hits_total"], snap.Counters["molcache_molecular_misses_total"]
	if hits+misses != accesses {
		t.Errorf("molecular hits %v + misses %v = %v, want the %d admitted accesses", hits, misses, hits+misses, accesses)
	}
	var page struct {
		Tenants []struct {
			Name     string `json:"name"`
			Accesses uint64 `json:"accesses"`
		} `json:"tenants"`
	}
	if err := servertest.GetJSON(f.Server.ObsURL()+"/tenants", &page); err != nil {
		t.Fatalf("GET /tenants: %v", err)
	}
	if len(page.Tenants) != 1 || page.Tenants[0].Name != "web" || page.Tenants[0].Accesses != accesses {
		t.Errorf("/tenants = %+v, want web with %d accesses", page.Tenants, accesses)
	}
	var health struct {
		Status string `json:"status"`
		At     uint64 `json:"snapshot_at_access"`
	}
	if err := servertest.GetJSON(f.Server.ObsURL()+"/healthz", &health); err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	if health.Status != "ok" || health.At != accesses {
		t.Errorf("/healthz = %+v, want ok at access %d", health, accesses)
	}
}

// TestTenantLimit: once MaxTenants tenants are registered, a new name is
// refused with ERR tenant-limit and journals nothing, while a
// registered tenant's TENANT still answers.
func TestTenantLimit(t *testing.T) {
	f := servertest.Boot(t, servertest.Options{NoCheckpoint: true})
	c := f.Client()
	for i := 0; i < server.MaxTenants; i++ {
		if _, err := c.Tenant(fmt.Sprintf("t%d", i), 0.2, 0); err != nil {
			t.Fatalf("TENANT t%d: %v", i, err)
		}
	}
	var pe *server.ProtocolError
	if _, err := c.Tenant("one-too-many", 0.2, 0); !errors.As(err, &pe) || pe.Code != server.ErrTenantLimit {
		t.Fatalf("TENANT past the limit: got %v, want %s", err, server.ErrTenantLimit)
	}
	if asid, err := c.Tenant("t0", 0.2, 0); err != nil || asid != 1 {
		t.Errorf("TENANT of a registered tenant at the limit: asid=%d err=%v, want 1", asid, err)
	}
	if err := f.Server.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	_, frames, err := server.ReadJournalFile(f.JournalPath)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	var registered int
	for _, fr := range frames {
		if fr.Tenant == nil {
			continue
		}
		if fr.Tenant.Name == "one-too-many" {
			t.Errorf("refused tenant was journaled: %+v", *fr.Tenant)
		}
		registered++
	}
	if registered != server.MaxTenants {
		t.Errorf("journal holds %d tenant frames, want %d", registered, server.MaxTenants)
	}
}

// TestRaceServe is the concurrency lock, run under -race by `make
// race-serve`: N concurrent clients drive distinct tenants, and after a
// graceful shutdown the journal must be gap-free with exactly one
// admitted access per cache-model operation, the /metrics totals must
// agree with both the journal and the client-side counts, and a journal
// replay must land on the live simulator's exact ledger.
func TestRaceServe(t *testing.T) {
	const (
		clients = 8
		ops     = 400
		keys    = 64
	)
	f := servertest.Boot(t, servertest.Options{Obs: true})
	stats := make([]server.DriveStats, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		i := i
		c := f.Client()
		tenant := fmt.Sprintf("tenant-%d", i)
		if _, err := c.Tenant(tenant, 0.2, 0); err != nil {
			t.Fatalf("TENANT %s: %v", tenant, err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[i], errs[i] = c.Drive(tenant, uint64(i+1), ops, keys)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	obsURL := f.Server.ObsURL()
	if err := f.Server.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// Client-side accounting: every SET, every found GET and every found
	// DEL is one admitted access; NOTFOUND operations are not admitted.
	var wantAccesses, wantRequests uint64
	for _, st := range stats {
		wantAccesses += uint64(st.Sets + st.Gets + st.Dels - st.NotFound)
		wantRequests += uint64(st.Sets + st.Gets + st.Dels)
	}

	// The journal must be gap-free and cover exactly the admitted count.
	_, frames, err := server.ReadJournalFile(f.JournalPath)
	if err != nil {
		t.Fatalf("journal not clean after concurrent serve: %v", err)
	}
	var journaled uint64
	for _, fr := range frames {
		if fr.Batch != nil {
			journaled += uint64(len(fr.Batch.Refs))
		}
	}
	if journaled != wantAccesses {
		t.Errorf("journal covers %d accesses, clients admitted %d", journaled, wantAccesses)
	}

	// The served /metrics page, scraped after shutdown, must agree.
	resp, err := http.Get(obsURL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	snap, err := telemetry.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("parse /metrics: %v", err)
	}
	if got := uint64(snap.Counters["molcache_server_accesses_total"]); got != wantAccesses {
		t.Errorf("molcache_server_accesses_total = %d, want %d", got, wantAccesses)
	}
	var served uint64
	for _, verb := range []string{"GET", "SET", "DEL"} {
		served += uint64(snap.Counters["molcache_server_requests_total{verb="+verb+"}"])
	}
	if served != wantRequests {
		t.Errorf("request totals = %d, clients sent %d", served, wantRequests)
	}
	if got := uint64(snap.Counters["molcache_server_requests_total{verb=TENANT}"]); got != clients {
		t.Errorf("TENANT requests = %d, want %d", got, clients)
	}
	if got := snap.Gauges["molcache_server_tenants"]; got != clients {
		t.Errorf("molcache_server_tenants = %v, want %d", got, clients)
	}

	// And the differential oracle must hold over the concurrent journal.
	rep, err := server.ReplayJournalFile(f.JournalPath, server.ReplayOptions{})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rep.Accesses != journaled || rep.Tenants != clients {
		t.Errorf("replay saw %d accesses / %d tenants, want %d / %d",
			rep.Accesses, rep.Tenants, journaled, clients)
	}
	live := f.Server.Sim()
	if !reflect.DeepEqual(*live.Cache.Ledger(), *rep.Sim.Cache.Ledger()) {
		t.Errorf("ledger diverged: live %+v, replay %+v", *live.Cache.Ledger(), *rep.Sim.Cache.Ledger())
	}
}

// TestShutdownUnderLoad: Shutdown while 8 clients are in the middle of
// Drive. Critical sections already running finish, later requests are
// refused, and the journal holds exactly the accesses the simulator
// ran: gap-free, replaying to the live ledger, with no access run after
// the journal closed.
func TestShutdownUnderLoad(t *testing.T) {
	const clients = 8
	f := servertest.Boot(t, servertest.Options{Obs: true})
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		i := i
		c := f.Client()
		tenant := fmt.Sprintf("tenant-%d", i)
		if _, err := c.Tenant(tenant, 0.2, 0); err != nil {
			t.Fatalf("TENANT %s: %v", tenant, err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Far more operations than run before Shutdown cuts in.
			_, errs[i] = c.Drive(tenant, uint64(i+1), 1<<30, 64)
		}()
	}
	// Shut down once the load is visibly under way.
	deadline := time.Now().Add(servertestTimeout)
	for {
		body, err := servertest.GetBody(f.Server.ObsURL() + "/metrics")
		if err != nil {
			t.Fatalf("GET /metrics: %v", err)
		}
		snap, err := telemetry.ParsePrometheus(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("parse /metrics: %v", err)
		}
		if snap.Counters["molcache_server_accesses_total"] >= 2000 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("load did not reach 2000 accesses")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := f.Server.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		var pe *server.ProtocolError
		switch {
		case err == nil:
			t.Errorf("client %d finished its drive: Shutdown did not stop it", i)
		case errors.As(err, &pe) && pe.Code != server.ErrShutdown:
			t.Errorf("client %d: %v, want a closed connection or %s", i, err, server.ErrShutdown)
		}
	}

	_, frames, err := server.ReadJournalFile(f.JournalPath)
	if err != nil {
		t.Fatalf("journal not clean after shutdown under load: %v", err)
	}
	var journaled uint64
	for _, fr := range frames {
		if fr.Batch != nil {
			journaled += uint64(len(fr.Batch.Refs))
		}
	}
	live := f.Server.Sim()
	if ran := live.Cache.Addresses(); ran != journaled || ran != f.Server.JournalSeq() {
		t.Errorf("simulator ran %d accesses, journal file holds %d, journal seq %d",
			ran, journaled, f.Server.JournalSeq())
	}
	rep, err := server.ReplayJournalFile(f.JournalPath, server.ReplayOptions{})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !reflect.DeepEqual(*live.Cache.Ledger(), *rep.Sim.Cache.Ledger()) {
		t.Errorf("ledger diverged: live %+v, replay %+v", *live.Cache.Ledger(), *rep.Sim.Cache.Ledger())
	}
}

// TestServedPathAllocs pins the served request path's garbage: a raw
// client that allocates nothing sends pre-rendered GETs and SETs (three
// to one) over preloaded keys to a live server with its journal on, and
// the whole process may allocate at most 3 times per request.
func TestServedPathAllocs(t *testing.T) {
	const (
		keys   = 512
		rounds = 24
	)
	f := servertest.Boot(t, servertest.Options{NoCheckpoint: true})
	c := f.Client()
	if _, err := c.Tenant("web", 0.2, 0); err != nil {
		t.Fatal(err)
	}
	value := bytes.Repeat([]byte{'v'}, 64)
	reqs := make([][]byte, keys)
	for k := range reqs {
		key := fmt.Sprintf("k%04d", k)
		if _, err := c.Set("web", key, value); err != nil {
			t.Fatal(err)
		}
		if k%4 == 0 {
			reqs[k] = []byte(fmt.Sprintf("SET web %s %d\r\n%s\r\n", key, len(value), value))
		} else {
			reqs[k] = []byte(fmt.Sprintf("GET web %s\r\n", key))
		}
	}
	conn, err := net.Dial("tcp", f.Server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, 4096)
	// do sends one request and reads its whole reply: one line for a
	// SET, a line plus the newline-free value line for a GET.
	do := func(req []byte) {
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		lines := 2
		if req[0] == 'S' {
			lines = 1
		}
		n := 0
		for lines > 0 {
			m, err := conn.Read(buf[n:])
			if err != nil {
				t.Fatal(err)
			}
			lines -= bytes.Count(buf[n:n+m], []byte{'\n'})
			n += m
		}
		if !bytes.HasPrefix(buf[:n], []byte("VALUE ")) && !bytes.HasPrefix(buf[:n], []byte("STORED ")) {
			t.Fatalf("reply %q to %q", buf[:n], req)
		}
	}
	for _, req := range reqs {
		do(req)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for r := 0; r < rounds; r++ {
		for _, req := range reqs {
			do(req)
		}
	}
	runtime.ReadMemStats(&m1)
	perReq := float64(m1.Mallocs-m0.Mallocs) / float64(rounds*keys)
	t.Logf("%.2f heap allocations per request", perReq)
	if perReq > 3 {
		t.Errorf("served path makes %.2f heap allocations per request, want at most 3", perReq)
	}
}
