// Served-traffic differential oracle for cmd/molcached's serving layer
// (internal/server): a live multi-tenant TCP server journals every
// admitted access to a MOLC1-framed log, and replaying that journal
// through a fresh offline Simulator must reproduce the server's exact
// end state — per-access Results (asserted inside ReplayJournal),
// ledgers, probe histograms, telemetry registries, ordered event
// streams, resize decision logs and the complete cache state, with both
// sides passing the structural audit — across fault campaigns and a
// checkpoint/warm-restart cycle. Any divergence means the network
// layer, journaling or restore path added semantic drift the cache
// model did not see.
package molcache_test

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"molcache/internal/addr"
	"molcache/internal/faults"
	"molcache/internal/molecular"
	"molcache/internal/obs"
	"molcache/internal/server"
	"molcache/internal/server/servertest"
)

// servedOracleConfig is a 4-cluster geometry (8 tiles, 128 molecules),
// so the tenants' regions are homed in different clusters.
func servedOracleConfig() molecular.Config {
	return molecular.Config{
		TotalSize:        1 * addr.MB,
		MoleculeSize:     8 * addr.KB,
		Clusters:         4,
		TilesPerCluster:  2,
		Policy:           molecular.RandyReplacement,
		LineFactor:       2,
		InitialMolecules: 8,
		Seed:             2006,
	}
}

// compareServedState asserts the replayed simulator landed on the live
// server's exact end state. withEvents is false only across a warm
// restart, where the live tracer ring was recreated at boot and so only
// holds post-restart events (everything else survives the checkpoint).
func compareServedState(t *testing.T, label string, srv *server.Server, rep *server.Replay, withEvents bool) {
	t.Helper()
	live, offline := srv.Sim(), rep.Sim
	if !reflect.DeepEqual(*live.Cache.Ledger(), *offline.Cache.Ledger()) {
		t.Errorf("%s: ledgers diverged:\nlive   %+v\nreplay %+v", label, *live.Cache.Ledger(), *offline.Cache.Ledger())
	}
	for asid := uint16(1); asid <= uint16(rep.Tenants); asid++ {
		if l, o := live.Cache.Ledger().App(asid), offline.Cache.Ledger().App(asid); l != o {
			t.Errorf("%s: asid %d ledger diverged: live %+v, replay %+v", label, asid, l, o)
		}
	}
	if !reflect.DeepEqual(live.Cache.ProbeHistogram(), offline.Cache.ProbeHistogram()) {
		t.Errorf("%s: probe histograms diverged", label)
	}
	if l, o := live.Degradation(), offline.Degradation(); l != o {
		t.Errorf("%s: degradation stats diverged: live %+v, replay %+v", label, l, o)
	}
	if l, o := live.FaultStats(), offline.FaultStats(); l != o {
		t.Errorf("%s: fault stats diverged: live %+v, replay %+v", label, l, o)
	}
	ls, os := srv.Registry().Snapshot(), rep.Registry.Snapshot()
	if !reflect.DeepEqual(ls.Counters, os.Counters) {
		t.Errorf("%s: telemetry counters diverged:\nlive   %v\nreplay %v", label, ls.Counters, os.Counters)
	}
	if !reflect.DeepEqual(ls.Gauges, os.Gauges) {
		t.Errorf("%s: telemetry gauges diverged:\nlive   %v\nreplay %v", label, ls.Gauges, os.Gauges)
	}
	if !reflect.DeepEqual(ls.Histograms, os.Histograms) {
		t.Errorf("%s: telemetry histograms diverged", label)
	}
	if withEvents {
		if l, o := srv.Tracer().Emitted(), rep.Tracer.Emitted(); l != o {
			t.Errorf("%s: event counts diverged: live %d, replay %d", label, l, o)
		}
		if !reflect.DeepEqual(srv.Tracer().Events(), rep.Tracer.Events()) {
			lev, oev := srv.Tracer().Events(), rep.Tracer.Events()
			n := len(lev)
			if len(oev) < n {
				n = len(oev)
			}
			for i := 0; i < n; i++ {
				if lev[i] != oev[i] {
					t.Errorf("%s: event %d diverged: live %+v, replay %+v", label, i, lev[i], oev[i])
					break
				}
			}
			t.Errorf("%s: event streams diverged (%d live, %d replay)", label, len(lev), len(oev))
		}
	}
	if !reflect.DeepEqual(live.Controller.Decisions(), offline.Controller.Decisions()) {
		t.Errorf("%s: resize decision logs diverged:\nlive   %+v\nreplay %+v",
			label, live.Controller.Decisions(), offline.Controller.Decisions())
	}
	if !reflect.DeepEqual(live.Cache.CaptureState(), offline.Cache.CaptureState()) {
		t.Errorf("%s: cache states diverged", label)
	}
	if vs := live.CheckInvariants(); len(vs) != 0 {
		t.Errorf("%s: live cache has violations: %v", label, vs)
	}
	if vs := offline.CheckInvariants(); len(vs) != 0 {
		t.Errorf("%s: replayed cache has violations: %v", label, vs)
	}
}

// TestServedTrafficOracle is the headline lock: three tenants driven
// concurrently over real TCP connections, then the journal replayed
// offline. Per-access Result identity is asserted inside ReplayJournal;
// the end-state comparison covers everything else.
func TestServedTrafficOracle(t *testing.T) {
	f := servertest.Boot(t, servertest.Options{Molecular: servedOracleConfig()})
	tenants := []struct {
		name string
		goal float64
		lf   int
		seed uint64
		ops  int
		keys int
	}{
		{"web", 0.05, 2, 11, 1500, 64},
		{"api", 0.2, 0, 22, 1500, 512},
		{"scan", 0.4, 0, 33, 1500, 4096},
	}
	var wg sync.WaitGroup
	errs := make([]error, len(tenants))
	for i, tn := range tenants {
		c := f.Client()
		if _, err := c.Tenant(tn.name, tn.goal, tn.lf); err != nil {
			t.Fatalf("TENANT %s: %v", tn.name, err)
		}
		i, tn := i, tn
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = c.Drive(tn.name, tn.seed, tn.ops, tn.keys)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("drive %s: %v", tenants[i].name, err)
		}
	}
	if err := f.Server.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// The subtest name predates the removal of sharded replay: one shard
	// was the serial Simulator loop, which is the only replay path now.
	t.Run("replay-shards=1", func(t *testing.T) {
		rep, err := server.ReplayJournalFile(f.JournalPath, server.ReplayOptions{})
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		if rep.Tenants != len(tenants) || rep.Accesses == 0 {
			t.Fatalf("replay saw %d tenants / %d accesses", rep.Tenants, rep.Accesses)
		}
		compareServedState(t, t.Name(), f.Server, rep, true)
	})
}

// TestServedTenantIsolation: a scan-storm tenant hammering a huge key
// space must not drag a small, SLO-tight tenant past its goal — the
// controller keeps the tight tenant's region sized for its working set
// (the paper's QoS claim, observed end to end through the daemon).
func TestServedTenantIsolation(t *testing.T) {
	cases := []struct {
		name     string
		lf       int
		scanKeys int
		tightMax float64 // ceiling for the tight tenant's overall miss rate
	}{
		{"lf2-storm16k", 2, 16384, 0.10},
		{"lf1-storm8k", 0, 8192, 0.10},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			f := servertest.Boot(t, servertest.Options{
				Molecular: servedOracleConfig(),
				Obs:       true,
			})
			c := f.Client()
			tightASID, err := c.Tenant("tight", 0.05, tc.lf)
			if err != nil {
				t.Fatal(err)
			}
			scanASID, err := c.Tenant("scan", 0.4, 0)
			if err != nil {
				t.Fatal(err)
			}
			// Warm the tight tenant, then interleave its steady traffic
			// with storm rounds (deterministic: one client, one stream).
			if _, err := c.Drive("tight", 11, 800, 48); err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 8; round++ {
				if _, err := c.Drive("tight", uint64(100+round), 150, 48); err != nil {
					t.Fatal(err)
				}
				if _, err := c.Drive("scan", uint64(200+round), 600, tc.scanKeys); err != nil {
					t.Fatal(err)
				}
			}
			if err := f.Server.Shutdown(); err != nil {
				t.Fatal(err)
			}

			led := f.Server.Sim().Cache.Ledger()
			tight, scan := led.App(tightASID), led.App(scanASID)
			if tight.MissRate() >= scan.MissRate() {
				t.Errorf("no isolation: tight miss rate %.4f >= scan %.4f",
					tight.MissRate(), scan.MissRate())
			}
			if tight.MissRate() > tc.tightMax {
				t.Errorf("tight tenant dragged past its SLO: miss rate %.4f > %.4f",
					tight.MissRate(), tc.tightMax)
			}
			// The published tenant view agrees with the ledger.
			var page struct {
				Tenants []obs.TenantInfo `json:"tenants"`
			}
			if err := servertest.GetJSON(f.Server.ObsURL()+"/tenants", &page); err != nil {
				t.Fatalf("GET /tenants: %v", err)
			}
			if len(page.Tenants) != 2 {
				t.Fatalf("got %d tenants in /tenants", len(page.Tenants))
			}
			ti := page.Tenants[0]
			if ti.Name != "tight" {
				t.Fatalf("tenant[0] = %q, want tight", ti.Name)
			}
			if got := ti.MissRate; got != tight.MissRate() {
				t.Errorf("/tenants miss rate %.6f != ledger %.6f", got, tight.MissRate())
			}
			// The replay oracle holds for the storm traffic too.
			rep, err := server.ReplayJournalFile(f.JournalPath, server.ReplayOptions{})
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			compareServedState(t, tc.name, f.Server, rep, true)
		})
	}
}

// TestServedFaultDegradation: a fault campaign (molecule failures and
// line corruptions keyed to the access clock) must not break serving —
// every request still gets a correct answer — and the journal replays
// to the identical degraded end state, because the replayed access
// clock re-delivers the same faults at the same points.
func TestServedFaultDegradation(t *testing.T) {
	campaign := faults.Campaign{
		Seed:                   42,
		RandomMoleculeFailures: &faults.RandomSpec{Count: 4, Start: 1000, End: 5000},
		RandomLineCorruptions:  &faults.RandomSpec{Count: 24, Start: 500, End: 6000},
	}
	f := servertest.Boot(t, servertest.Options{
		Molecular: servedOracleConfig(),
		Faults:    campaign,
	})
	c := f.Client()
	for _, name := range []string{"web", "batch"} {
		if _, err := c.Tenant(name, 0.2, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Values written before the faults strike must still read back
	// correctly afterwards (the store is authoritative; the cache model
	// only scores hits).
	if _, err := c.Set("web", "canary", []byte("still-here")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Drive("web", 7, 3500, 256); err != nil {
		t.Fatalf("serving broke under faults: %v", err)
	}
	if _, err := c.Drive("batch", 8, 3500, 1024); err != nil {
		t.Fatalf("serving broke under faults: %v", err)
	}
	v, _, found, err := c.Get("web", "canary")
	if err != nil || !found || !bytes.Equal(v, []byte("still-here")) {
		t.Fatalf("canary after faults: value=%q found=%v err=%v", v, found, err)
	}
	if err := f.Server.Shutdown(); err != nil {
		t.Fatal(err)
	}

	fs := f.Server.Sim().FaultStats()
	if fs.MoleculeFailures == 0 || fs.LineCorruptions == 0 {
		t.Fatalf("campaign not delivered: %+v", fs)
	}
	rep, err := server.ReplayJournalFile(f.JournalPath, server.ReplayOptions{})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	compareServedState(t, "faults/replay", f.Server, rep, true)
}

// TestWarmRestartContinuity: SIGTERM-checkpoint, reboot, keep serving.
// The restarted server must remember its tenants and stored values, the
// journal must stay gap-free across the generations, and a replay of
// the full journal — genesis through both generations — must land on
// the restarted server's exact end state.
func TestWarmRestartContinuity(t *testing.T) {
	f := servertest.Boot(t, servertest.Options{Molecular: servedOracleConfig()})
	c := f.Client()
	if _, err := c.Tenant("web", 0.1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Set("web", "durable", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Drive("web", 5, 1200, 128); err != nil {
		t.Fatal(err)
	}

	f.Restart()

	c2 := f.Client()
	// The tenant and its values survived without re-registration.
	v, _, found, err := c2.Get("web", "durable")
	if err != nil || !found || !bytes.Equal(v, []byte("v1")) {
		t.Fatalf("durable key after restart: value=%q found=%v err=%v", v, found, err)
	}
	// New tenants land on fresh ASIDs (the allocator state survived).
	asid, err := c2.Tenant("late", 0.3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if asid != 2 {
		t.Fatalf("post-restart tenant ASID = %d, want 2", asid)
	}
	if _, err := c2.Drive("web", 6, 800, 128); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Drive("late", 7, 800, 512); err != nil {
		t.Fatal(err)
	}
	if err := f.Server.Shutdown(); err != nil {
		t.Fatal(err)
	}

	// Full-journal replay (both generations) against the final state.
	// Events are excluded: the live ring restarted empty at reboot.
	rep, err := server.ReplayJournalFile(f.JournalPath, server.ReplayOptions{})
	if err != nil {
		t.Fatalf("replay across restart: %v", err)
	}
	if rep.Tenants != 2 {
		t.Fatalf("replay saw %d tenants, want 2", rep.Tenants)
	}
	compareServedState(t, "warm-restart", f.Server, rep, false)
}
