package obs

import (
	"flag"
	"fmt"
	"log"
	"os"

	"molcache/internal/molecular"
	"molcache/internal/resize"
	"molcache/internal/telemetry"
)

// Flags is the observability flag set every CLI mounts, so
// -events/-metrics/-serve mean the same thing in molsim, experiments
// and sweep.
type Flags struct {
	// Events is the JSONL telemetry event file (-events).
	Events string
	// Metrics is the final Prometheus text snapshot file, "-" for
	// stdout (-metrics).
	Metrics string
	// Serve is the introspection server listen address (-serve).
	Serve string
}

// Register mounts the core observability flags on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Events, "events", "", "write telemetry events (JSONL) to this file")
	fs.StringVar(&f.Metrics, "metrics", "", "write a final metrics snapshot (Prometheus text) to this file; \"-\" for stdout")
	fs.StringVar(&f.Serve, "serve", "", "serve live introspection (/metrics /regions /decisions /events /debug/pprof) on this address, e.g. :9464")
}

// Pipeline is everything Setup built from the flags. Nil fields mean
// that piece was not requested; every consumer in this repo is nil-safe,
// so callers attach unconditionally.
type Pipeline struct {
	// Tracer records structured events (non-nil with -events or -serve).
	Tracer *telemetry.Tracer
	// Registry accumulates metrics (non-nil with -metrics or -serve).
	Registry *telemetry.Registry
	// Publisher and Server exist with -serve: the server serves the
	// Publisher's latest state, and the registry until there is one.
	// Tap feeds /events.
	Publisher *Publisher
	Server    *Server
	Tap       *EventTap

	flags    Flags
	eventsF  *os.File
	finished bool
}

// Setup builds the requested observability pipeline. Callers should
// defer Close (which also Finishes) and, on the normal exit path, call
// Finish explicitly before printing results so output files are
// complete even when os.Exit follows.
func (f Flags) Setup() (*Pipeline, error) {
	p := &Pipeline{flags: f}
	serving := f.Serve != ""
	if f.Events != "" || serving {
		var inner telemetry.Sink
		if f.Events != "" {
			file, err := os.Create(f.Events)
			if err != nil {
				return nil, err
			}
			p.eventsF = file
			inner = telemetry.NewJSONLSink(file)
		}
		p.Tracer = telemetry.NewTracer(0)
		if serving {
			// The tap tees the (optional) file sink and feeds /events.
			p.Tap = NewEventTap(inner)
			p.Tracer.SetSink(p.Tap)
		} else {
			p.Tracer.SetSink(inner)
		}
	}
	if f.Metrics != "" || serving {
		p.Registry = telemetry.NewRegistry()
	}
	if serving {
		p.Publisher = NewPublisher()
		srv, err := Serve(f.Serve, Options{
			State:    p.Publisher.Latest,
			Registry: p.Registry,
			Tap:      p.Tap,
		})
		if err != nil {
			if p.eventsF != nil {
				p.eventsF.Close()
			}
			return nil, err
		}
		p.Server = srv
	}
	return p, nil
}

// Publish collects a fresh state snapshot from the simulation objects
// and installs it for the HTTP handlers. Call it from the goroutine
// that owns the cache; it is a no-op without -serve.
func (p *Pipeline) Publish(c *molecular.Cache, ctrl *resize.Controller) {
	if p == nil || p.Publisher == nil {
		return
	}
	p.Publisher.Publish(Collect(c, ctrl, p.Registry))
}

// Finish drains the pipeline's file outputs: flushes and closes the
// event sink and writes the final metrics snapshot. Idempotent; logs
// (rather than returns) write errors, matching how the CLIs treat
// telemetry output.
func (p *Pipeline) Finish() {
	if p == nil || p.finished {
		return
	}
	p.finished = true
	if p.Tracer != nil {
		if err := p.Tracer.Flush(); err != nil {
			log.Print(err)
		}
	}
	if p.eventsF != nil {
		if err := p.eventsF.Close(); err != nil {
			log.Print(err)
		}
	}
	if p.Registry != nil && p.flags.Metrics != "" {
		text := p.Registry.Snapshot().PrometheusString()
		if p.flags.Metrics == "-" {
			fmt.Print(text)
		} else if err := os.WriteFile(p.flags.Metrics, []byte(text), 0o644); err != nil {
			log.Print(err)
		}
	}
}

// Close Finishes the pipeline and shuts the introspection server down.
func (p *Pipeline) Close() {
	if p == nil {
		return
	}
	p.Finish()
	if p.Server != nil {
		if err := p.Server.Close(); err != nil {
			log.Print(err)
		}
	}
}
