package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"molcache"
	"molcache/internal/addr"
	"molcache/internal/molecular"
	"molcache/internal/obs"
	"molcache/internal/resize"
	"molcache/internal/server"
	"molcache/internal/telemetry"
)

// serve-hot and serve-churn: an in-process molcached configured like
// the README quickstart (molecular:1MB:4x2:Randy, goal 0.2, journal on,
// every other server.Config field at its default) driven by two
// closed-loop connections (= nproc on the reference box), one request
// outstanding on each, each connection owning one tenant. An op is one
// request; the latency percentiles are client round trips over the
// timed phase.

// tenantSpec is one connection's tenant.
type tenantSpec struct {
	name       string
	goal       float64
	lineFactor int // 0 keeps the cache default
}

// serveSpec is one serving workload.
type serveSpec struct {
	name    string
	tenants []tenantSpec
	mix     mix
	// preload stores every key once during set-up.
	preload bool
	// warmOps and timedOps are per connection.
	warmOps, timedOps int
}

// serveHot: 512 keys of 64-byte values per tenant (about 32 KB of
// lines against the 1 MB cache), all preloaded; 95% GET / 5% SET with
// 3/4 of operations on a hot eighth of the keys.
var serveHot = serveSpec{
	name:     "serve-hot",
	tenants:  []tenantSpec{{"hot0", 0.2, 0}, {"hot1", 0.2, 0}},
	mix:      mix{keys: 512, valueLen: 64, getPct: 95, setPct: 5, hotKeys: 64, hotPct: 75},
	preload:  true,
	warmOps:  5_000,
	timedOps: 30_000,
}

// serveChurn: shaped like `molcached -demo`, a tight-goal tenant with
// line factor 2 next to a loose-goal tenant with line factor 1, each
// over 32,768 keys (about 4 MB and 2 MB of lines, 2-4x the cache), 1 KiB
// values, no preload; 60% SET / 30% GET / 10% DEL over uniform keys.
var serveChurn = serveSpec{
	name:     "serve-churn",
	tenants:  []tenantSpec{{"tight", 0.05, 2}, {"loose", 0.4, 1}},
	mix:      mix{keys: 32_768, valueLen: 1024, getPct: 30, setPct: 60},
	warmOps:  5_000,
	timedOps: 30_000,
}

func runServeHot(a passArgs) *passResult   { return runServe(serveHot, a) }
func runServeChurn(a passArgs) *passResult { return runServe(serveChurn, a) }

// serverConfig is the quickstart configuration.
func serverConfig(journal string) server.Config {
	return server.Config{
		Listen: "127.0.0.1:0",
		Molecular: molecular.Config{
			TotalSize:       addr.MB,
			Clusters:        4,
			TilesPerCluster: 2,
			Policy:          molecular.RandyReplacement,
			Seed:            2006,
		},
		Resize:      resize.Config{DefaultGoal: 0.2},
		JournalPath: journal,
	}
}

// connSeed derives connection i's operation stream from the run seed.
func connSeed(seed uint64, i int) uint64 {
	g := opStream{s: seed ^ uint64(i+1)*0x9e3779b97f4a7c15}
	return g.next()
}

func runServe(spec serveSpec, a passArgs) *passResult {
	res := newPassResult()
	dir, err := os.MkdirTemp(a.tmp, spec.name+"-")
	if err != nil {
		res.fail("scratch dir: %v", err)
		return res
	}
	defer os.RemoveAll(dir)
	journal := filepath.Join(dir, "journal.molc")
	root := a.spans.begin(spec.name, -1)

	// Set-up: boot, tenant registration, request pre-rendering, preload.
	t0 := time.Now()
	sp := a.spans.begin("serve.setup", root)
	srv, err := server.New(serverConfig(journal))
	if err != nil {
		res.fail("boot: %v", err)
		return res
	}
	defer srv.Close()
	clients := make([]*client, len(spec.tenants))
	for i, t := range spec.tenants {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			res.fail("dial: %v", err)
			return res
		}
		c := newClient(conn, t.name, &spec.mix, connSeed(a.seed, i), spec.timedOps, a.traced)
		clients[i] = c
		if err := c.tenant(t.name, t.goal, t.lineFactor); err != nil {
			res.fail("%v", err)
			return res
		}
		if spec.preload {
			for k := 0; k < spec.mix.keys; k++ {
				if err := c.do(opSet, k); err != nil {
					res.fail("preload: %v", err)
					return res
				}
			}
		}
	}
	a.spans.end(sp)
	setup := time.Since(t0)
	res.set("setup_s", setup.Seconds(), 1)

	// Untimed warm-up, then a clean heap for the timed phase.
	sp = a.spans.begin("serve.warmup", root)
	if err := drive(clients, spec.warmOps); err != nil {
		res.fail("warm-up: %v", err)
		return res
	}
	a.spans.end(sp)
	runtime.GC()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var notFound0 int64
	for _, c := range clients {
		c.record = true
		notFound0 += c.notFound
	}
	sp = a.spans.begin("serve.timed", root)
	start := time.Now()
	err = drive(clients, spec.timedOps)
	wall := time.Since(start)
	a.spans.end(sp)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		res.fail("timed phase: %v", err)
		return res
	}
	for _, c := range clients {
		c.record = false
		for _, s := range c.sampled {
			a.spans.add("client."+opNames[s.verb], sp, s.start, s.end)
		}
		if err := c.quit(); err != nil {
			res.fail("quit: %v", err)
		}
	}

	sp = a.spans.begin("server.Shutdown", root)
	if err := srv.Shutdown(); err != nil {
		res.fail("shutdown: %v", err)
	}
	a.spans.end(sp)

	// Output checks: every reply matched the connection's own record,
	// and the journal replays to every journaled Result.
	for i, c := range clients {
		res.Attempted += c.ops
		res.Failed += c.failed
		if c.failed > 0 {
			res.fail("connection %d: %d bad replies, first %q on key %d", i, c.failed, c.firstErr, c.firstErrKey)
		}
	}
	sp = a.spans.begin("server.ReplayJournalFile", root)
	rep, err := server.ReplayJournalFile(journal, server.ReplayOptions{})
	a.spans.end(sp)
	if err != nil {
		res.fail("journal replay: %v", err)
		res.Failed = res.Attempted
	} else if rep.Accesses != srv.JournalSeq() {
		res.fail("journal replay covered %d accesses, the server journaled %d", rep.Accesses, srv.JournalSeq())
		res.Failed = res.Attempted
	}
	res.Digest = fmt.Sprintf("%s:%d", spec.name, res.Attempted)

	// End-to-end figures over the timed phase: this process's own view
	// (the per-pass diagnostics), and per-slice series for the run.
	var lat []int64
	for i, c := range clients {
		lat = append(lat, c.lat...)
		dur, p50, p90 := c.slices()
		ops := make([]float64, len(dur))
		for j := range ops {
			ops[j] = float64(min(sliceOps, len(c.lat)-j*sliceOps))
		}
		res.observe(fmt.Sprintf("slice_s.c%d", i), dur)
		res.observe(fmt.Sprintf("slice_ops.c%d", i), ops)
		res.observe(fmt.Sprintf("slice_p50_us.c%d", i), p50)
		res.observe(fmt.Sprintf("slice_p90_us.c%d", i), p90)
	}
	sortInt64s(lat)
	n := int64(len(lat))
	timedReqs := float64(n)
	res.set("wall_s", wall.Seconds(), 1)
	res.set("ops_per_s", timedReqs/wall.Seconds(), n)
	res.set("p50_us", nsQuantile(lat, 0.50)/1e3, n)
	res.set("p90_us", nsQuantile(lat, 0.90)/1e3, n)
	res.set("p99_us", nsQuantile(lat, 0.99)/1e3, n)
	res.set("p999_us", nsQuantile(lat, 0.999)/1e3, n)
	if !a.traced {
		return res
	}

	// Traced figures from the timed phase.
	res.set("server.p99_us", nsQuantile(lat, 0.99)/1e3, n)
	res.set("server.p999_us", nsQuantile(lat, 0.999)/1e3, n)
	for _, v := range []int{opGet, opSet} {
		var by []int64
		for _, c := range clients {
			for i, l := range c.lat {
				if int(c.verbs[i]) == v {
					by = append(by, l)
				}
			}
		}
		sortInt64s(by)
		res.set("server."+[]string{"get", "set"}[v]+"_p50_us", nsQuantile(by, 0.5)/1e3, int64(len(by)))
	}
	notFound := -notFound0
	for _, c := range clients {
		notFound += c.notFound
	}
	res.set("server.notfound_ratio", float64(notFound)/timedReqs, n)
	res.set("server.allocs_per_req", float64(ms1.Mallocs-ms0.Mallocs)/timedReqs, n)
	res.set("server.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, int64(ms1.NumGC-ms0.NumGC))

	// Re-drive the recorded traffic through each layer's public
	// functions, one layer at a time.
	var served int64 // every request the sim loop saw, set-up included
	for _, c := range clients {
		served += c.ops
	}
	decodeNs, err := timeDecode(spec, a, root)
	if err != nil {
		res.fail("decode re-drive: %v", err)
		return res
	}
	res.set("server.decode_ns", decodeNs, int64(spec.timedOps))
	st, err := redrive(journal, filepath.Join(dir, "redrive.molc"), a.spans, root)
	if err != nil {
		res.fail("engine re-drive: %v", err)
		return res
	}
	batches := int64(st.batches)
	res.set("server.batch_size", float64(st.accesses)/float64(st.batches), batches)
	res.set("shard.batch_us", st.shard.Seconds()*1e6/float64(st.batches), batches)
	res.set("molecular.batch_us", st.serial.Seconds()*1e6/float64(st.batches), batches)
	res.set("shard.overhead_us", (st.shard-st.serial).Seconds()*1e6/float64(st.batches), batches)
	res.set("journal.append_us", st.append.Seconds()*1e6/float64(st.batches), batches)
	if fi, err := os.Stat(journal); err == nil {
		res.set("journal.bytes_per_access", float64(fi.Size())/float64(st.accesses), int64(st.accesses))
	}

	sp = a.spans.begin("obs.Collect", root)
	const collects = 32
	c0 := time.Now()
	for i := 0; i < collects; i++ {
		obs.Collect(srv.Sim().Cache, srv.Sim().Controller, srv.Registry())
	}
	res.set("obs.collect_us", time.Since(c0).Seconds()*1e6/collects, collects)
	a.spans.end(sp)

	// Per request: decode, plus the request's share of the engine
	// batches and journal appends of every request the server handled.
	perReq := decodeNs/1e3 + (st.shard+st.append).Seconds()*1e6/float64(served)
	res.set("_stages", perReq, n)
	a.spans.end(root)
	return res
}

// finishServe: an op is one request. Each connection's throughput is
// its requests over the sum of its slices' durations, ops_per_s sums
// the connections, and wall_s is the timed requests at that rate;
// p50_us and p90_us are medians over all slices of each slice's median
// and 90th-percentile latency.
func finishServe(units map[string][]float64) map[string]float64 {
	f := map[string]float64{}
	var p50, p90 []float64
	var reqs float64
	for c := 0; ; c++ {
		dur, ok := units[fmt.Sprintf("slice_s.c%d", c)]
		if !ok {
			break
		}
		var d, ops float64
		for i, x := range dur {
			d += x
			ops += units[fmt.Sprintf("slice_ops.c%d", c)][i]
		}
		f["ops_per_s"] += ops / d
		reqs += ops
		p50 = append(p50, units[fmt.Sprintf("slice_p50_us.c%d", c)]...)
		p90 = append(p90, units[fmt.Sprintf("slice_p90_us.c%d", c)]...)
	}
	f["wall_s"] = reqs / f["ops_per_s"]
	f["p50_us"], f["p90_us"] = median(p50), median(p90)
	return f
}

// drive runs ops operations on every connection concurrently.
func drive(clients []*client, ops int) error {
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for j := 0; j < ops; j++ {
				if err := c.step(); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// timeDecode renders connection 0's timed-phase requests (the same
// verbs, keys and value sizes it sent) and times server.ReadRequest over
// them; it returns ns per request.
func timeDecode(spec serveSpec, a passArgs, root int32) (float64, error) {
	c := newClient(nil, spec.tenants[0].name, &spec.mix, connSeed(a.seed, 0), 0, false)
	for j := 0; j < spec.warmOps; j++ {
		spec.mix.op(&c.gen)
	}
	var wire bytes.Buffer
	for j := 0; j < spec.timedOps; j++ {
		v, k := spec.mix.op(&c.gen)
		wire.Write(c.header(v, k))
		if v == opSet {
			wire.Write(c.value)
		}
	}
	br := bufio.NewReaderSize(bytes.NewReader(wire.Bytes()), 64<<10)
	sp := a.spans.begin("server.ReadRequest", root)
	t0 := time.Now()
	for j := 0; j < spec.timedOps; j++ {
		if _, err := server.ReadRequest(br); err != nil {
			return 0, err
		}
	}
	d := time.Since(t0)
	a.spans.end(sp)
	return float64(d.Nanoseconds()) / float64(spec.timedOps), nil
}

// redriveStats are the per-layer totals of one journal re-drive.
type redriveStats struct {
	batches, accesses     int
	shard, serial, append time.Duration
}

// redrive feeds every journal batch through Simulator.Sharded(1) (the
// server's engine at its default shard count), through the serial
// Simulator.AccessBatch on a twin with the same telemetry attached, and
// through Journal.Batch into a fresh journal at out, timing each call.
// Both engines must reproduce the journaled Results.
func redrive(journal, out string, spans *spanLog, root int32) (redriveStats, error) {
	var st redriveStats
	cfg, frames, err := server.ReadJournalFile(journal)
	if err != nil {
		return st, err
	}
	newSim := func() (*molcache.Simulator, error) {
		sim, err := molcache.NewSimulator(cfg.Molecular, cfg.Resize)
		if err != nil {
			return nil, err
		}
		sim.AttachTelemetry(telemetry.NewTracer(cfg.EventRing), telemetry.NewRegistry())
		return sim, sim.InjectFaults(cfg.Faults)
	}
	sharded, err := newSim()
	if err != nil {
		return st, err
	}
	serial, err := newSim()
	if err != nil {
		return st, err
	}
	j, err := server.CreateJournal(out, cfg)
	if err != nil {
		return st, err
	}
	sp := spans.begin("redrive", root)
	err = redriveFrames(&st, frames, sharded, serial, j, spans, sp)
	spans.end(sp)
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return st, err
	}
	if st.batches == 0 {
		return st, fmt.Errorf("journal holds no batches")
	}
	return st, nil
}

// redriveFrames applies the journal's frames in order (tenant frames
// create regions and set goals on both simulators) and times each
// batch through the three layers.
func redriveFrames(st *redriveStats, frames []server.Frame, sharded, serial *molcache.Simulator,
	j *server.Journal, spans *spanLog, parent int32) error {
	eng := sharded.Sharded(1)
	for _, f := range frames {
		switch {
		case f.Tenant != nil:
			rec := f.Tenant
			for _, sim := range []*molcache.Simulator{sharded, serial} {
				if !rec.Update {
					if _, err := sim.Cache.CreateRegion(rec.ASID, molcache.RegionOptions{
						HomeCluster: -1, HomeTile: -1, LineFactor: rec.LineFactor,
					}); err != nil {
						return err
					}
				}
				if err := sim.Controller.SetGoal(rec.ASID, rec.Goal); err != nil {
					return err
				}
			}
			if err := j.Tenant(*rec); err != nil {
				return err
			}
		case f.Batch != nil:
			rec := f.Batch
			t0 := time.Now()
			got := eng.AccessBatch(rec.Refs)
			t1 := time.Now()
			twin := serial.AccessBatch(rec.Refs)
			t2 := time.Now()
			err := j.Batch(rec.Refs, got)
			t3 := time.Now()
			if err != nil {
				return err
			}
			for i := range got {
				if got[i] != rec.Results[i] || twin[i] != rec.Results[i] {
					return fmt.Errorf("access %d: sharded %+v, serial %+v, journal %+v",
						rec.First+uint64(i), got[i], twin[i], rec.Results[i])
				}
			}
			if st.batches%spanEvery == 0 {
				spans.add("shard.Engine.AccessBatch", parent, t0, t1)
				spans.add("Simulator.AccessBatch", parent, t1, t2)
				spans.add("server.Journal.Batch", parent, t2, t3)
			}
			st.shard += t1.Sub(t0)
			st.serial += t2.Sub(t1)
			st.append += t3.Sub(t2)
			st.batches++
			st.accesses += len(rec.Refs)
		}
	}
	return nil
}
