package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"molcache/internal/resize"
	"molcache/internal/telemetry"
)

// Options wires the introspection endpoints to their data sources. Any
// field may be nil; the matching endpoint degrades gracefully (503 for
// /events without a tap, empty documents elsewhere).
type Options struct {
	// State supplies /regions, /tenants, /decisions, /healthz and —
	// when it returns a state — /metrics. Handlers call it once per
	// request on their own goroutines, so it returns either an immutable
	// published State (Publisher.Latest) or one it collects under the
	// lock that guards the simulation. A nil result means no state yet.
	State func() *State
	// Registry is the /metrics fallback while State has none; only its
	// AtomicSnapshot is taken (registry funcs stay with the simulation).
	Registry *telemetry.Registry
	// Tap feeds /events.
	Tap *EventTap
}

// state returns the source's current State (nil without a source).
func (o Options) state() *State {
	if o.State == nil {
		return nil
	}
	return o.State()
}

// NewMux builds the introspection handler tree:
//
//	GET /            index
//	GET /metrics     Prometheus text exposition
//	GET /regions     live region topology (JSON)
//	GET /decisions   resize decision log (JSON)
//	GET /events      Server-Sent Events stream of telemetry events
//	GET /healthz     liveness: snapshot age, event-tap drops (JSON)
//	GET /debug/pprof the standard Go profiling endpoints
func NewMux(opts Options) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/", indexHandler)
	mux.HandleFunc("/healthz", healthzHandler(opts))
	mux.HandleFunc("/metrics", metricsHandler(opts))
	mux.HandleFunc("/regions", regionsHandler(opts))
	mux.HandleFunc("/tenants", tenantsHandler(opts))
	mux.HandleFunc("/decisions", decisionsHandler(opts))
	mux.HandleFunc("/events", eventsHandler(opts))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func indexHandler(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `molcache introspection server

  /metrics      Prometheus text exposition (counters, gauges, histograms)
  /regions      per-ASID region topology, occupancy, miss rate vs goal (JSON)
  /tenants      molcached tenant table: name-to-ASID, SLO status (JSON)
  /decisions    resize controller decision log (JSON)
  /events       live telemetry event stream (Server-Sent Events)
  /healthz      liveness and staleness: snapshot age, event-tap drops (JSON)
  /debug/pprof  Go runtime profiles
`)
}

// healthzHandler reports the observability plane's own health: whether
// the source has a state, when it was taken and how stale it is, and
// whether the event tap is shedding load. Everything but the tap counts
// comes from the one state it serves.
func healthzHandler(opts Options) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		resp := struct {
			Status           string  `json:"status"`
			SnapshotTaken    string  `json:"snapshot_taken,omitempty"`
			SnapshotAge      float64 `json:"snapshot_age_seconds"`
			SnapshotAtAccess uint64  `json:"snapshot_at_access"`
			EventsWritten    uint64  `json:"events_written"`
			EventsDropped    uint64  `json:"events_dropped"`
			EventSubscribers int     `json:"event_subscribers"`
		}{Status: "ok", SnapshotAge: -1}
		if st := opts.state(); st != nil {
			resp.SnapshotTaken = st.Taken.UTC().Format(time.RFC3339Nano)
			resp.SnapshotAge = time.Since(st.Taken).Seconds()
			resp.SnapshotAtAccess = st.At
		} else {
			resp.Status = "no-snapshot"
		}
		if opts.Tap != nil {
			resp.EventsWritten = opts.Tap.Written()
			resp.EventsDropped = opts.Tap.Dropped()
			resp.EventSubscribers = opts.Tap.Subscribers()
		}
		writeJSON(w, resp)
	}
}

func metricsHandler(opts Options) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// Prefer the source's state: it is internally consistent and
		// includes the registry funcs' values, which only the
		// simulation's owner may read. While it has none, fall back to
		// the registry's lock-free subset.
		var snap telemetry.Snapshot
		switch st := opts.state(); {
		case st != nil:
			snap = st.Metrics
		case opts.Registry != nil:
			snap = opts.Registry.AtomicSnapshot()
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		snap.Prometheus(w)
	}
}

func regionsHandler(opts Options) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		st := opts.state()
		if st == nil {
			st = &State{}
		}
		if st.Regions == nil {
			// Keep the payload well-formed for consumers: "regions":[]
			// rather than null.
			clone := *st
			clone.Regions = []RegionInfo{}
			st = &clone
		}
		writeJSON(w, st)
	}
}

func tenantsHandler(opts Options) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		st := opts.state()
		if st == nil {
			st = &State{}
		}
		tenants := st.Tenants
		if tenants == nil {
			tenants = []TenantInfo{}
		}
		resp := struct {
			At      uint64       `json:"at"`
			Tenants []TenantInfo `json:"tenants"`
		}{At: st.At, Tenants: tenants}
		writeJSON(w, resp)
	}
}

func decisionsHandler(opts Options) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		st := opts.state()
		if st == nil {
			st = &State{}
		}
		decs := st.Decisions
		if decs == nil {
			decs = []resize.Decision{}
		}
		resp := struct {
			At       uint64            `json:"at"`
			Total    uint64            `json:"total"`
			Retained int               `json:"retained"`
			Dropped  uint64            `json:"dropped"`
			Events   []resize.Decision `json:"decisions"`
		}{
			At:       st.At,
			Total:    st.DecisionsTotal,
			Retained: len(decs),
			Dropped:  st.DecisionsTotal - uint64(len(decs)),
			Events:   decs,
		}
		writeJSON(w, resp)
	}
}

func eventsHandler(opts Options) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if opts.Tap == nil {
			http.Error(w, "no event stream attached: run the command with -events or -serve",
				http.StatusServiceUnavailable)
			return
		}
		fl, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		ch, cancel := opts.Tap.Subscribe(sseSubscriberBuffer)
		defer cancel()
		fmt.Fprintf(w, ": molcache telemetry stream\n\n")
		fl.Flush()
		for {
			select {
			case <-r.Context().Done():
				return
			case ev, ok := <-ch:
				if !ok {
					return
				}
				data, err := json.Marshal(ev)
				if err != nil {
					continue
				}
				fmt.Fprintf(w, "data: %s\n\n", data)
				fl.Flush()
			}
		}
	}
}

// sseSubscriberBuffer bounds per-subscriber memory on /events; when a
// client falls this far behind, events are dropped (and counted) rather
// than blocking the simulation.
const sseSubscriberBuffer = 1024

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// Server is a running introspection server.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve binds addr (e.g. ":9464" or "127.0.0.1:0") and serves the
// introspection mux in the background until Close.
func Serve(addr string, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: NewMux(opts)}
	s := &Server{ln: ln, srv: srv}
	go srv.Serve(ln)
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the http:// base URL of the server.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Close stops the server immediately, dropping in-flight streams.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
