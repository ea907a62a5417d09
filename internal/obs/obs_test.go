package obs_test

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"molcache/internal/addr"
	"molcache/internal/molecular"
	"molcache/internal/obs"
	"molcache/internal/resize"
	"molcache/internal/telemetry"
	"molcache/internal/trace"
)

// simWorld builds a small molecular cache with a controller and
// registry, drives it, and returns the pieces Collect wants.
func simWorld(t *testing.T) (*molecular.Cache, *resize.Controller, *telemetry.Registry) {
	t.Helper()
	c, err := molecular.New(molecular.Config{
		TotalSize:       512 * addr.KB,
		Clusters:        1,
		TilesPerCluster: 4,
		Policy:          molecular.RandyReplacement,
		Seed:            2006,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	c.AttachTelemetry(nil, reg)
	ctrl, err := resize.New(c, resize.Config{
		Period: 400, MinPeriod: 200, MaxPeriod: 5000,
		DefaultGoal: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6000; i++ {
		asid := uint16(1 + i%3)
		c.Access(trace.Ref{ASID: asid, Addr: uint64(asid)<<36 | uint64(i%997)*64, Kind: trace.Read})
		ctrl.Tick()
	}
	return c, ctrl, reg
}

func TestCollectState(t *testing.T) {
	c, ctrl, reg := simWorld(t)
	st := obs.Collect(c, ctrl, reg)

	if st.Accesses != 6000 {
		t.Fatalf("accesses = %d, want 6000", st.Accesses)
	}
	if len(st.Regions) == 0 {
		t.Fatal("no regions collected")
	}
	if st.DecisionsTotal == 0 || len(st.Decisions) == 0 {
		t.Fatalf("no resize decisions collected (total=%d retained=%d)",
			st.DecisionsTotal, len(st.Decisions))
	}
	for _, ri := range st.Regions {
		if ri.Molecules <= 0 {
			t.Errorf("asid %d: molecules = %d", ri.ASID, ri.Molecules)
		}
		if len(ri.Tiles) == 0 {
			t.Errorf("asid %d: no tile counts", ri.ASID)
		}
		total := 0
		for i, tc := range ri.Tiles {
			total += tc.Molecules
			if i > 0 && ri.Tiles[i-1].Tile >= tc.Tile {
				t.Errorf("asid %d: tiles not sorted: %v", ri.ASID, ri.Tiles)
			}
		}
		if total != ri.Molecules {
			t.Errorf("asid %d: tile counts sum %d != molecules %d", ri.ASID, total, ri.Molecules)
		}
		if ri.Goal != 0.2 {
			t.Errorf("asid %d: goal = %v, want 0.2", ri.ASID, ri.Goal)
		}
		if ri.LastResize == nil {
			t.Errorf("asid %d: no last resize decision", ri.ASID)
		} else if ri.LastResize.ASID != ri.ASID {
			t.Errorf("asid %d: last resize is for asid %d", ri.ASID, ri.LastResize.ASID)
		}
	}
	if len(st.Metrics.Counters) == 0 {
		t.Error("metrics snapshot has no counters")
	}

	// Collect tolerates missing pieces.
	empty := obs.Collect(nil, nil, nil)
	if empty.Accesses != 0 || len(empty.Regions) != 0 {
		t.Fatalf("nil collect not empty: %+v", empty)
	}
}

// TestCollectCopiesOnlyNewDecisions publishes a controller whose ring
// is full after every few resize passes. Each publish must allocate in
// proportion to the decisions recorded since the last one — the
// append-only copy amortizes to two decisions' worth per new decision —
// not to the 4,096-decision ring, which a copy of the whole log per
// publish would cost. The published slices stay exactly the ring, and
// a slice already published is never written again.
func TestCollectCopiesOnlyNewDecisions(t *testing.T) {
	c, err := molecular.New(molecular.Config{TotalSize: 512 * addr.KB, Seed: 2006})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := resize.New(c, resize.Config{Trigger: resize.Constant, Period: 1, DefaultGoal: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	step := func(n int) {
		for end := i + n; i < end; i++ {
			asid := uint16(1 + i%3)
			c.Access(trace.Ref{ASID: asid, Addr: uint64(asid)<<36 | uint64(i%997)*64, Kind: trace.Read})
			ctrl.Tick()
		}
	}
	step(2 * resize.DefaultDecisionLog) // three regions: a decision each per pass
	first := obs.Collect(nil, ctrl, nil)
	if len(first.Decisions) != resize.DefaultDecisionLog {
		t.Fatalf("ring holds %d decisions, want it full (%d)", len(first.Decisions), resize.DefaultDecisionLog)
	}
	snapshot := append([]resize.Decision(nil), first.Decisions...)

	const perPublish = 4 // passes, so 12 decisions
	rounds := 3 * resize.DefaultDecisionLog / (3 * perPublish)
	var bytes, decisions uint64
	var ms0, ms1 runtime.MemStats
	for r := 0; r < rounds; r++ {
		before := ctrl.DecisionCount()
		step(perPublish)
		decisions += ctrl.DecisionCount() - before
		runtime.ReadMemStats(&ms0)
		st := obs.Collect(nil, ctrl, nil)
		runtime.ReadMemStats(&ms1)
		bytes += ms1.TotalAlloc - ms0.TotalAlloc
		if len(st.Decisions) != resize.DefaultDecisionLog || st.Decisions[len(st.Decisions)-1].Seq != ctrl.DecisionCount() {
			t.Fatalf("round %d: published %d decisions ending at seq %d, want the full ring ending at %d",
				r, len(st.Decisions), st.Decisions[len(st.Decisions)-1].Seq, ctrl.DecisionCount())
		}
	}
	size := uint64(unsafe.Sizeof(resize.Decision{}))
	perNew := float64(bytes) / float64(decisions)
	t.Logf("%d publishes of %d new decisions each: %.0f B per new decision (%d B a decision, %d B a ring copy)",
		rounds, decisions/uint64(rounds), perNew, size, size*resize.DefaultDecisionLog)
	if perNew > float64(3*size) {
		t.Errorf("publishing allocated %.0f B per new decision, want at most %d (3 decisions' worth)", perNew, 3*size)
	}
	if !reflect.DeepEqual(first.Decisions, snapshot) {
		t.Error("a published decision slice was written after its publish")
	}
}

func TestPublisherNilSafety(t *testing.T) {
	var p *obs.Publisher
	p.Publish(&obs.State{})
	if p.Latest() != nil {
		t.Fatal("nil publisher returned a state")
	}
	p = obs.NewPublisher()
	if p.Latest() != nil {
		t.Fatal("fresh publisher not empty")
	}
	st := &obs.State{At: 7}
	p.Publish(st)
	if got := p.Latest(); got != st {
		t.Fatalf("Latest = %p, want %p", got, st)
	}
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestServerEndpoints(t *testing.T) {
	c, ctrl, reg := simWorld(t)
	pub := obs.NewPublisher()
	pub.Publish(obs.Collect(c, ctrl, reg))
	tap := obs.NewEventTap(nil)

	srv, err := obs.Serve("127.0.0.1:0", obs.Options{State: pub.Latest, Registry: reg, Tap: tap})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := srv.URL()

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"# TYPE molcache_molecular_hits_total counter",
		"molcache_molecular_probe_count_bucket",
		"molcache_access_service_cycles_sum",
		"molcache_molecular_free_molecules",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if snap, err := telemetry.ParsePrometheus(strings.NewReader(body)); err != nil {
		t.Errorf("/metrics does not re-parse: %v", err)
	} else if len(snap.Counters) == 0 {
		t.Error("/metrics parsed to zero counters")
	}

	code, body = get(t, base+"/regions")
	if code != http.StatusOK {
		t.Fatalf("/regions status %d", code)
	}
	var st obs.State
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/regions not JSON: %v\n%s", err, body)
	}
	if st.Accesses != 6000 || len(st.Regions) == 0 {
		t.Fatalf("/regions payload wrong: accesses=%d regions=%d", st.Accesses, len(st.Regions))
	}

	code, body = get(t, base+"/decisions")
	if code != http.StatusOK {
		t.Fatalf("/decisions status %d", code)
	}
	var decs struct {
		Total     uint64            `json:"total"`
		Retained  int               `json:"retained"`
		Decisions []resize.Decision `json:"decisions"`
	}
	if err := json.Unmarshal([]byte(body), &decs); err != nil {
		t.Fatalf("/decisions not JSON: %v", err)
	}
	if decs.Total == 0 || decs.Retained != len(decs.Decisions) || decs.Retained == 0 {
		t.Fatalf("/decisions payload wrong: %+v", decs)
	}
	for _, d := range decs.Decisions {
		if d.Reason == "" {
			t.Fatalf("decision %d has empty reason", d.Seq)
		}
	}

	code, body = get(t, base+"/")
	if code != http.StatusOK || !strings.Contains(body, "/decisions") {
		t.Fatalf("index wrong: status %d body %q", code, body)
	}
	if code, _ := get(t, base+"/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown path status %d, want 404", code)
	}
	// pprof is mounted.
	if code, _ := get(t, base+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status %d", code)
	}
}

func TestTenantsEndpoint(t *testing.T) {
	c, ctrl, reg := simWorld(t)
	pub := obs.NewPublisher()
	srv, err := obs.Serve("127.0.0.1:0", obs.Options{State: pub.Latest, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := srv.URL()

	type page struct {
		At      uint64           `json:"at"`
		Tenants []obs.TenantInfo `json:"tenants"`
	}
	// Before the first publish — and after a publish with no tenant
	// table — the payload stays well-formed: "tenants":[] , never null.
	for _, stage := range []string{"pre-publish", "no-tenants"} {
		code, body := get(t, base+"/tenants")
		if code != http.StatusOK {
			t.Fatalf("%s: /tenants status %d", stage, code)
		}
		var empty page
		if err := json.Unmarshal([]byte(body), &empty); err != nil {
			t.Fatalf("%s: /tenants not JSON: %v\n%s", stage, err, body)
		}
		if empty.Tenants == nil || len(empty.Tenants) != 0 {
			t.Fatalf("%s: /tenants not an empty list: %s", stage, body)
		}
		pub.Publish(obs.Collect(c, ctrl, reg))
	}

	st := obs.Collect(c, ctrl, reg)
	st.Tenants = []obs.TenantInfo{
		{Name: "web", ASID: 1, Goal: 0.05, LineFactor: 2, Keys: 41,
			Molecules: 9, Accesses: 2000, MissRate: 0.03, WindowMissRate: 0.02, SLOMet: true},
		{Name: "scan", ASID: 2, Goal: 0.4, Keys: 8192, Accesses: 4000,
			MissRate: 0.5, WindowMissRate: 0.55},
	}
	pub.Publish(st)
	code, body := get(t, base+"/tenants")
	if code != http.StatusOK {
		t.Fatalf("/tenants status %d", code)
	}
	var got page
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("/tenants not JSON: %v\n%s", err, body)
	}
	if got.At != st.At {
		t.Errorf("/tenants at = %d, want %d", got.At, st.At)
	}
	if !reflect.DeepEqual(got.Tenants, st.Tenants) {
		t.Errorf("/tenants round trip:\ngot  %+v\nwant %+v", got.Tenants, st.Tenants)
	}
	// The tenant table must not leak into the /regions payload (it is
	// the /tenants endpoint's own view).
	if _, body := get(t, base+"/regions"); strings.Contains(body, `"slo_met"`) {
		t.Error("/regions leaked the tenant table")
	}
}

func TestHealthzEndpoint(t *testing.T) {
	c, ctrl, reg := simWorld(t)
	pub := obs.NewPublisher()
	tap := obs.NewEventTap(nil)
	srv, err := obs.Serve("127.0.0.1:0", obs.Options{State: pub.Latest, Registry: reg, Tap: tap})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	type health struct {
		Status           string  `json:"status"`
		SnapshotTaken    string  `json:"snapshot_taken"`
		SnapshotAge      float64 `json:"snapshot_age_seconds"`
		SnapshotAtAccess uint64  `json:"snapshot_at_access"`
		EventsWritten    uint64  `json:"events_written"`
		EventsDropped    uint64  `json:"events_dropped"`
	}

	// Before the first publish: reachable, but explicit about having no
	// snapshot (age -1, no timestamp).
	code, body := get(t, srv.URL()+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d", code)
	}
	var h health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("/healthz not JSON: %v\n%s", err, body)
	}
	if h.Status != "no-snapshot" || h.SnapshotAge != -1 || h.SnapshotTaken != "" {
		t.Fatalf("pre-publish health wrong: %+v", h)
	}

	// After a publish: ok, a fresh age, the snapshot's access count and
	// a parseable time it was taken.
	pub.Publish(obs.Collect(c, ctrl, reg))
	if err := tap.Write(telemetry.Event{Kind: telemetry.KindAccess}); err != nil {
		t.Fatal(err)
	}
	_, body = get(t, srv.URL()+"/healthz")
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("/healthz not JSON: %v", err)
	}
	if h.Status != "ok" {
		t.Fatalf("post-publish status %q, want ok", h.Status)
	}
	if h.SnapshotAge < 0 || h.SnapshotAge > 60 {
		t.Fatalf("snapshot age %.3fs implausible", h.SnapshotAge)
	}
	if h.SnapshotAtAccess != 6000 {
		t.Fatalf("snapshot_at_access = %d, want 6000", h.SnapshotAtAccess)
	}
	if _, err := time.Parse(time.RFC3339Nano, h.SnapshotTaken); err != nil {
		t.Fatalf("snapshot_taken %q does not parse: %v", h.SnapshotTaken, err)
	}
	if h.EventsWritten != 1 || h.EventsDropped != 0 {
		t.Fatalf("event tap counts wrong: %+v", h)
	}
}

func TestServerBeforeFirstPublishFallsBack(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("molcache_test_total").Add(3)
	srv, err := obs.Serve("127.0.0.1:0", obs.Options{State: obs.NewPublisher().Latest, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := get(t, srv.URL()+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, "molcache_test_total 3") {
		t.Fatalf("/metrics fallback wrong: status %d body %q", code, body)
	}
	code, body = get(t, srv.URL()+"/regions")
	if code != http.StatusOK || !strings.Contains(body, `"regions": []`) {
		t.Fatalf("/regions empty state wrong: status %d body %q", code, body)
	}
	// No tap attached: /events refuses rather than hanging.
	code, _ = get(t, srv.URL()+"/events")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/events without tap status %d, want 503", code)
	}
}

func TestEventsSSEStream(t *testing.T) {
	tap := obs.NewEventTap(nil)
	tr := telemetry.NewTracer(0)
	tr.SetSink(tap)

	srv, err := obs.Serve("127.0.0.1:0", obs.Options{Tap: tap})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get(srv.URL() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	// Wait for the subscription to land, then emit events from the "sim".
	deadline := time.Now().Add(5 * time.Second)
	for tap.Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscriber never registered")
		}
		time.Sleep(time.Millisecond)
	}
	tr.Access(1, 3, 0xcafe, true, false, 2, 0)
	tr.Resize(2, 3, "grow", 4, 20)

	sc := bufio.NewScanner(resp.Body)
	var events []telemetry.Event
	for sc.Scan() && len(events) < 2 {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev telemetry.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		events = append(events, ev)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2 (scan err %v)", len(events), sc.Err())
	}
	if events[0].Kind != telemetry.KindAccess || events[0].Addr != 0xcafe {
		t.Fatalf("first event wrong: %+v", events[0])
	}
	if events[1].Kind != telemetry.KindResize || events[1].Detail != "grow" {
		t.Fatalf("second event wrong: %+v", events[1])
	}
	if tap.Written() != 2 {
		t.Fatalf("tap written = %d, want 2", tap.Written())
	}
}

func TestEventTapDropsWhenSubscriberStalls(t *testing.T) {
	tap := obs.NewEventTap(nil)
	ch, cancel := tap.Subscribe(2)
	defer cancel()
	for i := 0; i < 5; i++ {
		tap.Write(telemetry.Event{Seq: uint64(i + 1)})
	}
	if tap.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", tap.Dropped())
	}
	if tap.Written() != 5 {
		t.Fatalf("written = %d, want 5", tap.Written())
	}
	// The two buffered events are intact and in order.
	for want := uint64(1); want <= 2; want++ {
		ev := <-ch
		if ev.Seq != want {
			t.Fatalf("event seq = %d, want %d", ev.Seq, want)
		}
	}
	// Cancel is idempotent and closes the channel.
	cancel()
	cancel()
	if _, ok := <-ch; ok {
		t.Fatal("channel not closed after cancel")
	}
	if tap.Subscribers() != 0 {
		t.Fatalf("subscribers = %d after cancel", tap.Subscribers())
	}
}

func TestEventTapTeesToInnerSink(t *testing.T) {
	mem := telemetry.NewMemorySink()
	tap := obs.NewEventTap(mem)
	tap.Write(telemetry.Event{Seq: 1, Kind: telemetry.KindResize})
	if err := tap.Flush(); err != nil {
		t.Fatal(err)
	}
	if mem.Len() != 1 {
		t.Fatalf("inner sink got %d events, want 1", mem.Len())
	}
}

func TestPipelineSetupAndFinish(t *testing.T) {
	dir := t.TempDir()
	f := obs.Flags{
		Events:  dir + "/events.jsonl",
		Metrics: dir + "/metrics.prom",
		Serve:   "127.0.0.1:0",
	}
	p, err := f.Setup()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Tracer == nil || p.Registry == nil ||
		p.Publisher == nil || p.Server == nil || p.Tap == nil {
		t.Fatalf("pipeline incomplete: %+v", p)
	}

	c, ctrl, _ := simWorld(t)
	// Re-home the cache's metrics onto the pipeline registry and attach
	// the pipeline tracer, as the CLIs do.
	c.AttachTelemetry(p.Tracer, p.Registry)
	ctrl.AttachTelemetry(p.Tracer, p.Registry)
	for i := 0; i < 2000; i++ {
		c.Access(trace.Ref{ASID: 1, Addr: 1<<36 | uint64(i%97)*64, Kind: trace.Read})
		ctrl.Tick()
	}
	p.Publish(c, ctrl)

	code, body := get(t, p.Server.URL()+"/regions")
	if code != http.StatusOK || !strings.Contains(body, `"asid": 1`) {
		t.Fatalf("/regions via pipeline: status %d body %s", code, body)
	}

	p.Finish()
	p.Finish() // idempotent

	events, err := os.ReadFile(f.Events)
	if err != nil || len(events) == 0 {
		t.Fatalf("events file: %v (%d bytes)", err, len(events))
	}
	metrics, err := os.ReadFile(f.Metrics)
	if err != nil || !strings.Contains(string(metrics), "molcache_molecular_hits_total") {
		t.Fatalf("metrics file: %v\n%s", err, metrics)
	}
}

func TestPipelineEmptyFlagsIsInert(t *testing.T) {
	p, err := obs.Flags{}.Setup()
	if err != nil {
		t.Fatal(err)
	}
	if p.Tracer != nil || p.Registry != nil || p.Server != nil {
		t.Fatalf("empty flags built something: %+v", p)
	}
	p.Publish(nil, nil) // no-op, must not panic
	p.Finish()
	p.Close()
}
