package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"sort"
	"strconv"
	"sync"

	"molcache"
	"molcache/internal/addr"
	"molcache/internal/engine"
	"molcache/internal/faults"
	"molcache/internal/molecular"
	"molcache/internal/obs"
	"molcache/internal/resize"
	"molcache/internal/snapshot"
	"molcache/internal/telemetry"
	"molcache/internal/trace"
)

// Config parameterizes a molcached server.
type Config struct {
	// Listen is the TCP address of the key/value protocol ("127.0.0.1:0"
	// picks an ephemeral port).
	Listen string
	// ObsListen mounts the internal/obs introspection server when
	// non-empty (/metrics, /regions, /tenants, /healthz, ...).
	ObsListen string

	// Molecular and Resize configure the simulator the server fronts.
	Molecular molecular.Config
	Resize    resize.Config
	// Faults optionally schedules a fault campaign (keyed to the access
	// count, so journal replay re-delivers it identically).
	Faults faults.Campaign

	// AddrBits is each tenant's address-space width: keys hash into
	// [0, 2^AddrBits) within a per-ASID base (default 26, max 36).
	AddrBits uint

	// JournalPath enables the MOLC1-framed access journal (the
	// differential oracle's input). Empty disables journaling.
	JournalPath string
	// CheckpointPath enables checkpoint-on-shutdown and warm restore
	// on boot. Empty disables both.
	CheckpointPath string
}

func (c Config) withDefaults() Config {
	if c.AddrBits == 0 {
		c.AddrBits = 26
	}
	return c
}

// MaxTenants bounds TENANT registrations; the next one is refused with
// ERR tenant-limit.
const MaxTenants = 1024

// eventRing sizes the sim-plane tracer ring. The genesis frame records
// it (JournalConfig.EventRing), so the replayer builds the same ring and
// the event streams compare.
const eventRing = 4096

// asidShift places each tenant's address space at asid<<36, matching
// the workload-generator convention, so AddrBits may be at most 36.
const asidShift = 36

// FNV-64a parameters (hash/fnv's New64a).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// blockAddr maps a tenant's key to its line-aligned block address:
// FNV-64a of the key masked to the tenant's address-space width, offset
// into the per-ASID base. Deterministic, so the journal needs only the
// resulting refs. The hash runs over the string in place.
func blockAddr(asid uint16, key string, addrBits uint, lineSize uint64) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	a := uint64(asid)<<asidShift | (h & addr.Mask(addrBits))
	return addr.LineAlign(a, lineSize)
}

// Tenant is one registered tenant: a name bound to an ASID-backed
// region with an SLO goal.
type Tenant struct {
	Name       string  `json:"name"`
	ASID       uint16  `json:"asid"`
	Goal       float64 `json:"goal"`
	LineFactor int     `json:"line_factor,omitempty"`
}

// response is a request's outcome, handed from its critical section to
// the reply writer.
type response struct {
	err   *ProtocolError
	asid  uint16
	hit   bool
	found bool
	value []byte
}

// errShuttingDown answers every request that reaches its critical
// section after Shutdown began.
var errShuttingDown = &ProtocolError{Code: ErrShutdown, Detail: "server is shutting down"}

// counters are the server-plane counters a request touches, resolved
// once in New so a request never builds or looks up a metric name.
type counters struct {
	requests                                          map[Verb]*telemetry.Counter
	accesses, notFound, protocolErrors, journalErrors *telemetry.Counter
}

func newCounters(reg *telemetry.Registry) counters {
	c := counters{
		requests:       make(map[Verb]*telemetry.Counter),
		accesses:       reg.Counter("molcache_server_accesses_total"),
		notFound:       reg.Counter("molcache_server_notfound_total"),
		protocolErrors: reg.Counter("molcache_server_protocol_errors_total"),
		journalErrors:  reg.Counter("molcache_server_journal_errors_total"),
	}
	for _, v := range []Verb{VerbTenant, VerbGet, VerbSet, VerbDel, VerbPing, VerbQuit} {
		c.requests[v] = reg.Counter("molcache_server_requests_total{verb=" + string(v) + "}")
	}
	return c
}

// Server is a running molcached instance.
type Server struct {
	cfg Config

	ln     net.Listener
	obsSrv *obs.Server

	// mu is the one lock over simulation state: the simulator, journal,
	// value store and tenant table below. A connection goroutine holds
	// it for one request's critical section, an obs request while it
	// collects a State; Shutdown takes it to stop admitting and again to
	// close the journal.
	mu       sync.Mutex
	sim      *molcache.Simulator
	lineSize uint64
	journal  *Journal
	store    map[string]map[string][]byte
	tenants  map[string]*Tenant
	nextASID uint16
	stopping bool

	tr      *telemetry.Tracer
	reg     *telemetry.Registry // sim-plane: attached, replay-comparable
	servReg *telemetry.Registry // server-plane: request/journal counters
	ctr     counters
	tap     *obs.EventTap

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	connWG sync.WaitGroup
	closed bool

	warm       bool
	restoreErr error

	shutdownOnce sync.Once
	shutdownErr  error
}

// checkpoint section names for the server's own MOLC1 container: the
// tenant table + sequence state, the value store, and the embedded
// simulator checkpoint (itself a MOLC1 container).
const (
	sectionServer = "server"
	sectionStore  = "store"
	sectionSim    = "sim"
)

// serverState is the "server" checkpoint section.
type serverState struct {
	NextASID uint16   `json:"next_asid"`
	Seq      uint64   `json:"seq"`
	Tenants  []Tenant `json:"tenants"`
}

func (s *Server) journalConfig() JournalConfig {
	return JournalConfig{
		Molecular: s.cfg.Molecular,
		Resize:    s.cfg.Resize,
		Faults:    s.cfg.Faults,
		AddrBits:  s.cfg.AddrBits,
		EventRing: eventRing,
	}
}

// New builds and starts a server: warm-restores from CheckpointPath
// when a checkpoint exists (falling back to a cold start on corruption,
// counted on molcache_server_restore_failures_total), opens or creates the
// journal, mounts the obs plane, and begins accepting connections.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.AddrBits > asidShift {
		return nil, fmt.Errorf("server: AddrBits %d exceeds the %d-bit per-tenant space", cfg.AddrBits, asidShift)
	}
	s := &Server{
		cfg:      cfg,
		store:    make(map[string]map[string][]byte),
		tenants:  make(map[string]*Tenant),
		nextASID: 1,
		tr:       telemetry.NewTracer(eventRing),
		reg:      telemetry.NewRegistry(),
		servReg:  telemetry.NewRegistry(),
		conns:    make(map[net.Conn]struct{}),
	}
	s.ctr = newCounters(s.servReg)
	// The tenant table is read under mu: state is the one caller of
	// servReg.Snapshot, which evaluates funcs.
	s.servReg.RegisterGaugeFunc("molcache_server_tenants", func() float64 {
		return float64(len(s.tenants))
	})
	s.tap = obs.NewEventTap(nil)
	s.tr.SetSink(s.tap)

	if err := s.boot(); err != nil {
		return nil, err
	}

	if cfg.ObsListen != "" {
		srv, err := obs.Serve(cfg.ObsListen, obs.Options{State: s.state, Tap: s.tap})
		if err != nil {
			s.journal.Close()
			return nil, err
		}
		s.obsSrv = srv
	}

	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		s.obsSrv.Close()
		s.journal.Close()
		return nil, fmt.Errorf("server: listen %s: %w", cfg.Listen, err)
	}
	s.ln = ln

	go s.acceptLoop()
	return s, nil
}

// boot builds the simulator (warm or cold) and the journal, then
// attaches the sim-plane telemetry to whichever simulator it built.
func (s *Server) boot() error {
	if s.cfg.CheckpointPath != "" {
		if _, err := os.Stat(s.cfg.CheckpointPath); err == nil {
			if err := s.restore(); err != nil {
				s.restoreErr = err
				s.servReg.Counter("molcache_server_restore_failures_total").Inc()
			}
		}
	}
	if !s.warm {
		if err := s.coldStart(); err != nil {
			return err
		}
	}
	s.sim.AttachTelemetry(s.tr, s.reg)
	return nil
}

func (s *Server) coldStart() error {
	sim, err := molcache.NewSimulator(s.cfg.Molecular, s.cfg.Resize)
	if err != nil {
		return err
	}
	if err := sim.InjectFaults(s.cfg.Faults); err != nil {
		return err
	}
	s.sim = sim
	s.lineSize = sim.Cache.Config().LineSize
	if s.cfg.JournalPath != "" {
		j, err := CreateJournal(s.cfg.JournalPath, s.journalConfig())
		if err != nil {
			return err
		}
		s.journal = j
	}
	return nil
}

// restore rebuilds the full server state from the checkpoint container
// and re-opens the journal for appending, verifying the journal's tail
// sequence matches the checkpointed one (a mismatched pair would break
// the replay oracle's gap-free guarantee).
func (s *Server) restore() error {
	data, err := os.ReadFile(s.cfg.CheckpointPath)
	if err != nil {
		return err
	}
	sections, err := snapshot.Decode(data)
	if err != nil {
		return err
	}
	var st serverState
	payload, err := snapshot.Find(sections, sectionServer)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(payload, &st); err != nil {
		return &snapshot.Error{Section: sectionServer, Reason: err.Error()}
	}
	var store map[string]map[string][]byte
	if payload, err = snapshot.Find(sections, sectionStore); err != nil {
		return err
	}
	if err := json.Unmarshal(payload, &store); err != nil {
		return &snapshot.Error{Section: sectionStore, Reason: err.Error()}
	}
	simBytes, err := snapshot.Find(sections, sectionSim)
	if err != nil {
		return err
	}
	sim, err := molcache.RestoreSimulatorBytes(simBytes)
	if err != nil {
		return err
	}

	var j *Journal
	if s.cfg.JournalPath != "" {
		var jcfg JournalConfig
		j, jcfg, err = OpenJournal(s.cfg.JournalPath)
		if err != nil {
			return err
		}
		if j.Seq() != st.Seq {
			j.Close()
			return errJournal(j.Seq(), "journal tail does not match checkpoint seq %d", st.Seq)
		}
		if !reflect.DeepEqual(jcfg, s.journalConfig()) {
			j.Close()
			return errJournal(0, "journal genesis config differs from the server configuration")
		}
	}

	s.sim = sim
	s.lineSize = sim.Cache.Config().LineSize
	s.journal = j
	s.nextASID = st.NextASID
	if store == nil {
		store = make(map[string]map[string][]byte)
	}
	s.store = store
	for i := range st.Tenants {
		t := st.Tenants[i]
		if s.store[t.Name] == nil {
			s.store[t.Name] = make(map[string][]byte)
		}
		tc := t
		s.tenants[t.Name] = &tc
	}
	s.warm = true
	return nil
}

// writeCheckpoint packs tenant table + store + simulator into one
// crash-safe MOLC1 container. Shutdown runs it under mu, after the last
// critical section.
func (s *Server) writeCheckpoint() error {
	simBytes, err := s.sim.EncodeCheckpoint()
	if err != nil {
		return err
	}
	tenants := make([]Tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, *t)
	}
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].ASID < tenants[j].ASID })
	st := serverState{NextASID: s.nextASID, Seq: s.journal.Seq(), Tenants: tenants}
	stBytes, err := json.Marshal(st)
	if err != nil {
		return err
	}
	storeBytes, err := json.Marshal(s.store)
	if err != nil {
		return err
	}
	data, err := snapshot.Encode([]snapshot.Section{
		{Name: sectionServer, Payload: stBytes},
		{Name: sectionStore, Payload: storeBytes},
		{Name: sectionSim, Payload: simBytes},
	})
	if err != nil {
		return err
	}
	return snapshot.WriteRaw(s.cfg.CheckpointPath, data)
}

// Addr returns the bound key/value protocol address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// ObsURL returns the introspection server's base URL ("" when not
// mounted).
func (s *Server) ObsURL() string {
	if s.obsSrv == nil {
		return ""
	}
	return s.obsSrv.URL()
}

// WarmStarted reports whether the server restored from a checkpoint.
func (s *Server) WarmStarted() bool { return s.warm }

// RestoreErr returns the absorbed restore failure behind a cold-start
// fallback (nil on a clean cold or warm boot).
func (s *Server) RestoreErr() error { return s.restoreErr }

// Sim exposes the simulator for oracle comparison. Callers must only
// touch it after Shutdown has returned (connection goroutines change
// it under the server's lock while the server runs).
func (s *Server) Sim() *molcache.Simulator { return s.sim }

// Tracer returns the sim-plane event tracer (same post-Shutdown rule).
func (s *Server) Tracer() *telemetry.Tracer { return s.tr }

// Registry returns the sim-plane metrics registry.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// JournalSeq returns the last journaled access sequence number (only
// stable after Shutdown).
func (s *Server) JournalSeq() uint64 { return s.journal.Seq() }

func (s *Server) acceptLoop() {
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.connMu.Lock()
		if s.closed {
			s.connMu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.connWG.Add(1)
		s.connMu.Unlock()
		s.servReg.Counter("molcache_server_connections_total").Inc()
		go s.serveConn(c)
	}
}

func (s *Server) removeConn(c net.Conn) {
	s.connMu.Lock()
	delete(s.conns, c)
	s.connMu.Unlock()
}

// writeErr writes an ERR reply. Replies go to the connection's
// bufio.Writer piece by piece, so writing one allocates nothing; the
// writer's error is sticky, so only the closing Flush needs checking.
func writeErr(bw *bufio.Writer, pe *ProtocolError) error {
	bw.WriteString("ERR ")
	bw.WriteString(pe.Code)
	bw.WriteByte(' ')
	bw.WriteString(pe.Detail)
	bw.WriteString("\r\n")
	return bw.Flush()
}

func hitToken(hit bool) string {
	if hit {
		return "HIT"
	}
	return "MISS"
}

// writeReply writes a successful request's reply.
func writeReply(bw *bufio.Writer, verb Verb, resp response) error {
	switch {
	case verb == VerbTenant:
		bw.WriteString("OK ")
		bw.Write(strconv.AppendUint(bw.AvailableBuffer(), uint64(resp.asid), 10))
	case !resp.found:
		bw.WriteString("NOTFOUND")
	case verb == VerbGet:
		bw.WriteString("VALUE ")
		bw.WriteString(hitToken(resp.hit))
		bw.WriteByte(' ')
		bw.Write(strconv.AppendInt(bw.AvailableBuffer(), int64(len(resp.value)), 10))
		bw.WriteString("\r\n")
		bw.Write(resp.value)
	case verb == VerbSet:
		bw.WriteString("STORED ")
		bw.WriteString(hitToken(resp.hit))
	case verb == VerbDel:
		bw.WriteString("DELETED ")
		bw.WriteString(hitToken(resp.hit))
	}
	bw.WriteString("\r\n")
	return bw.Flush()
}

func (s *Server) serveConn(c net.Conn) {
	defer s.connWG.Done()
	defer s.removeConn(c)
	defer c.Close()
	br := bufio.NewReader(c)
	bw := bufio.NewWriter(c)
	for {
		req, err := ReadRequest(br)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return
			}
			var pe *ProtocolError
			if errors.As(err, &pe) {
				s.ctr.protocolErrors.Inc()
				writeErr(bw, pe)
				if pe.Fatal() {
					return
				}
				continue
			}
			return
		}
		s.ctr.requests[req.Verb].Inc()
		switch req.Verb {
		case VerbPing:
			bw.WriteString("PONG\r\n")
			if bw.Flush() != nil {
				return
			}
			continue
		case VerbQuit:
			bw.WriteString("BYE\r\n")
			bw.Flush()
			return
		}
		resp := s.handle(req)
		if resp.err != nil {
			if writeErr(bw, resp.err) != nil || resp.err == errShuttingDown {
				return
			}
			continue
		}
		if writeReply(bw, req.Verb, resp) != nil {
			return
		}
	}
}

// handle runs one TENANT, GET, SET or DEL request's critical section:
// under mu it applies the store change, admits the access through the
// serial Simulator.Access path and journals it. A GET's value is safe
// to write after unlocking: a stored value slice is never modified,
// only replaced.
func (s *Server) handle(req Request) response {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopping {
		return response{err: errShuttingDown}
	}
	if req.Verb == VerbTenant {
		return s.handleTenant(req)
	}
	t, ok := s.tenants[req.Tenant]
	if !ok {
		return response{err: errProto(ErrUnknownTenant, "tenant %q is not registered", req.Tenant)}
	}
	keys := s.store[req.Tenant]
	resp := response{found: true}
	switch req.Verb {
	case VerbGet:
		v, present := keys[req.Key]
		if !present {
			s.ctr.notFound.Inc()
			return response{}
		}
		resp.value = v
	case VerbSet:
		keys[req.Key] = req.Value
	case VerbDel:
		if _, present := keys[req.Key]; !present {
			s.ctr.notFound.Inc()
			return response{}
		}
		delete(keys, req.Key)
	}
	ref := trace.Ref{
		Addr: blockAddr(t.ASID, req.Key, s.cfg.AddrBits, s.lineSize),
		ASID: t.ASID,
		Kind: req.Verb.RefKind(),
	}
	res := s.sim.Access(ref)
	if err := s.journal.Batch([]trace.Ref{ref}, []engine.Result{res}); err != nil {
		// A dead journal invalidates the oracle, not the service:
		// count it and keep serving.
		s.ctr.journalErrors.Inc()
	}
	s.ctr.accesses.Inc()
	resp.hit = res.Hit
	return resp
}

// handleTenant registers a tenant (creating its region) or updates an
// existing tenant's goal. Runs under mu.
func (s *Server) handleTenant(req Request) response {
	if t, ok := s.tenants[req.Tenant]; ok {
		if req.LineFactor != 0 && req.LineFactor != t.LineFactor {
			return response{err: errProto(ErrTenantConflict,
				"tenant %q has line factor %d, fixed for the region's lifetime", req.Tenant, t.LineFactor)}
		}
		if req.Goal != t.Goal {
			if err := s.sim.Controller.SetGoal(t.ASID, req.Goal); err != nil {
				return response{err: errProto(ErrBadGoal, "%v", err)}
			}
			t.Goal = req.Goal
			if err := s.journal.Tenant(TenantRecord{
				ASID: t.ASID, Name: t.Name, Goal: t.Goal, Update: true,
			}); err != nil {
				s.ctr.journalErrors.Inc()
			}
		}
		return response{asid: t.ASID}
	}
	if len(s.tenants) >= MaxTenants {
		return response{err: errProto(ErrTenantLimit, "tenant limit %d reached", MaxTenants)}
	}
	asid := s.nextASID
	_, err := s.sim.Cache.CreateRegion(asid, molecular.RegionOptions{
		HomeCluster: -1, HomeTile: -1, LineFactor: req.LineFactor,
	})
	if err != nil {
		return response{err: errProto(ErrRegionAlloc, "%v", err)}
	}
	if err := s.sim.Controller.SetGoal(asid, req.Goal); err != nil {
		return response{err: errProto(ErrBadGoal, "%v", err)}
	}
	s.nextASID++
	t := &Tenant{Name: req.Tenant, ASID: asid, Goal: req.Goal, LineFactor: req.LineFactor}
	s.tenants[t.Name] = t
	s.store[t.Name] = make(map[string][]byte)
	if err := s.journal.Tenant(TenantRecord{
		ASID: asid, Name: t.Name, Goal: t.Goal, LineFactor: t.LineFactor,
	}); err != nil {
		s.ctr.journalErrors.Inc()
	}
	return response{asid: asid}
}

// state is the obs handlers' state source: under mu it collects an
// obs.State and extends it with the tenant view and the server-plane
// metrics, so every response reads the server between two critical
// sections, and /tenants and /metrics agree.
func (s *Server) state() *obs.State {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := obs.Collect(s.sim.Cache, s.sim.Controller, s.reg)
	st.Tenants = s.collectTenants(st)
	st.Metrics = mergeSnapshots(st.Metrics, s.servReg.Snapshot())
	return st
}

func (s *Server) collectTenants(st *obs.State) []obs.TenantInfo {
	byASID := make(map[uint16]*obs.RegionInfo, len(st.Regions))
	for i := range st.Regions {
		byASID[st.Regions[i].ASID] = &st.Regions[i]
	}
	infos := make([]obs.TenantInfo, 0, len(s.tenants))
	for _, t := range s.tenants {
		ti := obs.TenantInfo{
			Name:       t.Name,
			ASID:       t.ASID,
			Goal:       t.Goal,
			LineFactor: t.LineFactor,
			Keys:       len(s.store[t.Name]),
		}
		if ri := byASID[t.ASID]; ri != nil {
			ti.Molecules = ri.Molecules
			ti.Accesses = ri.Accesses
			ti.MissRate = ri.MissRate
			ti.WindowMissRate = ri.WindowMissRate
			ti.SLOMet = ri.WindowMissRate <= t.Goal
		}
		infos = append(infos, ti)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].ASID < infos[j].ASID })
	return infos
}

// mergeSnapshots overlays the server-plane snapshot onto the sim-plane
// one. The namespaces are disjoint (molcache_server_* vs the rest), so
// no key can collide.
func mergeSnapshots(sim, serv telemetry.Snapshot) telemetry.Snapshot {
	for k, v := range serv.Counters {
		sim.Counters[k] = v
	}
	for k, v := range serv.Gauges {
		sim.Gauges[k] = v
	}
	for k, v := range serv.Histograms {
		sim.Histograms[k] = v
	}
	return sim
}

// Shutdown gracefully stops the server: it stops admitting requests
// (a critical section already running finishes first, because this
// waits for the lock; later ones answer ERR shutting-down), stops
// accepting, closes every connection and waits for its goroutine,
// then syncs and closes the journal and — when configured — writes a
// checkpoint. The obs server stays up for post-mortem scraping of the
// final state until Close. Safe to call more than once.
func (s *Server) Shutdown() error {
	s.shutdownOnce.Do(func() {
		s.mu.Lock()
		s.stopping = true
		s.mu.Unlock()
		s.ln.Close()
		s.connMu.Lock()
		s.closed = true
		for c := range s.conns {
			c.Close()
		}
		s.connMu.Unlock()
		s.connWG.Wait()

		s.mu.Lock()
		defer s.mu.Unlock()
		if err := s.journal.Close(); err != nil {
			s.shutdownErr = err
		}
		if s.cfg.CheckpointPath != "" {
			if err := s.writeCheckpoint(); err != nil && s.shutdownErr == nil {
				s.shutdownErr = err
			}
		}
	})
	return s.shutdownErr
}

// Close shuts the server down and stops the obs plane.
func (s *Server) Close() error {
	err := s.Shutdown()
	if cerr := s.obsSrv.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}
