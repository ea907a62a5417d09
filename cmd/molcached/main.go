// Command molcached is a live multi-tenant molecular cache daemon: a
// TCP key/value server (internal/server) where each tenant is an ASID
// with its own cache region, miss-rate SLO goal and line factor, the
// paper's Algorithm 1 runs live as the per-tenant QoS controller, and
// the internal/obs introspection server exposes /tenants, /metrics,
// /regions, /decisions and /healthz.
//
// Every admitted access is journaled to a MOLC1-framed access log
// (-journal) that replays byte-identically through an offline
// Simulator — the served-traffic differential oracle (DESIGN.md §14).
// SIGTERM/SIGINT checkpoint the full server state (-checkpoint); the
// next boot warm-restores it and appends to the same journal.
//
// Usage:
//
//	molcached -listen 127.0.0.1:11411 -serve 127.0.0.1:9464 \
//	    -cache molecular:1MB:4x2:Randy -journal access.molc \
//	    -checkpoint molcached.ckpt
//
// The -demo flag drives a deterministic two-tenant SLO demo (a tight-
// goal hot-set tenant next to a scan-storm tenant) over loopback
// before the daemon starts waiting for signals.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"molcache/internal/faults"
	"molcache/internal/molecular"
	"molcache/internal/resize"
	"molcache/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "molcached:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen      = flag.String("listen", "127.0.0.1:11411", "key/value protocol listen address")
		serve       = flag.String("serve", "", "introspection server address (empty disables)")
		cacheSpec   = flag.String("cache", "molecular:1MB:4x2:Randy", "cache spec molecular:SIZE:CxT:POLICY")
		seed        = flag.Uint64("seed", 2006, "replacement randomness seed")
		goal        = flag.Float64("goal", 0.2, "default tenant miss-rate goal")
		period      = flag.Uint64("period", 0, "initial resize period in accesses (0 = paper default)")
		addrBits    = flag.Uint("addr-bits", 26, "per-tenant address-space width in bits")
		journalPath = flag.String("journal", "", "MOLC1 access journal path (empty disables)")
		ckptPath    = flag.String("checkpoint", "", "checkpoint path for SIGTERM save / warm restore")
		faultsPath  = flag.String("faults", "", "JSON fault campaign to inject")
		demo        = flag.Bool("demo", false, "run the two-tenant SLO demo workload, then keep serving")
		demoOps     = flag.Int("demo-ops", 20000, "operations per demo tenant")
	)
	flag.Parse()

	mcfg, err := molecular.ParseSpec(*cacheSpec, *seed)
	if err != nil {
		return err
	}
	cfg := server.Config{
		Listen:         *listen,
		ObsListen:      *serve,
		Molecular:      mcfg,
		Resize:         resize.Config{Period: *period, DefaultGoal: *goal},
		AddrBits:       *addrBits,
		JournalPath:    *journalPath,
		CheckpointPath: *ckptPath,
	}
	if *faultsPath != "" {
		if cfg.Faults, err = faults.Load(*faultsPath); err != nil {
			return err
		}
	}

	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	if srv.WarmStarted() {
		fmt.Printf("molcached: warm restore from %s (journal seq %d)\n", *ckptPath, srv.JournalSeq())
	} else if rerr := srv.RestoreErr(); rerr != nil {
		fmt.Fprintf(os.Stderr, "molcached: restore failed, cold start: %v\n", rerr)
	}
	fmt.Printf("molcached: serving on %s\n", srv.Addr())
	if u := srv.ObsURL(); u != "" {
		fmt.Printf("molcached: introspection on %s\n", u)
	}

	// Install the signal handler before the demo: a SIGTERM mid-demo
	// must still shut down gracefully (and write the checkpoint). The
	// only goroutine-touching construct in this main is the signal
	// channel; everything else lives behind internal/server's one lock
	// over simulation state.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)

	if *demo {
		if err := runDemo(srv.Addr(), *demoOps); err != nil {
			srv.Close()
			return fmt.Errorf("demo: %w", err)
		}
	}

	<-sig
	fmt.Println("molcached: shutting down")
	if err := srv.Shutdown(); err != nil {
		srv.Close()
		return err
	}
	if *ckptPath != "" {
		fmt.Printf("molcached: checkpoint written to %s (journal seq %d)\n", *ckptPath, srv.JournalSeq())
	}
	return srv.Close()
}

// runDemo registers two tenants with contrasting SLOs and drives them
// synchronously over loopback: "hot" keeps a small reusable working
// set under a tight 5% goal while "scan" streams a large key space
// under a loose 40% goal — the partition isolation story in miniature.
// Deterministic, so repeated demos journal identical traffic.
func runDemo(address string, ops int) error {
	c, err := server.Dial(address)
	if err != nil {
		return err
	}
	defer c.Close()
	if _, err := c.Tenant("hot", 0.05, 2); err != nil {
		return err
	}
	if _, err := c.Tenant("scan", 0.4, 0); err != nil {
		return err
	}
	hot, err := c.Drive("hot", 1, ops, 64)
	if err != nil {
		return err
	}
	scan, err := c.Drive("scan", 2, ops, 8192)
	if err != nil {
		return err
	}
	fmt.Printf("molcached: demo hot:  %d sets %d gets %d dels, %d hits / %d misses\n",
		hot.Sets, hot.Gets, hot.Dels, hot.Hits, hot.Misses)
	fmt.Printf("molcached: demo scan: %d sets %d gets %d dels, %d hits / %d misses\n",
		scan.Sets, scan.Gets, scan.Dels, scan.Hits, scan.Misses)
	return nil
}
