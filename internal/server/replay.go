package server

import (
	"fmt"
	"io"
	"os"

	"molcache"
	"molcache/internal/molecular"
	"molcache/internal/telemetry"
)

// This file is the offline half of the served-traffic differential
// oracle. A journal is self-describing: the genesis frame carries the
// configurations, the tenant frames carry every region creation and
// goal update in admission order, and the batch frames carry every
// admitted ref with the Result the live server computed. Replaying the
// journal through a fresh Simulator therefore reconstructs the exact
// access history the live cache saw — same refs, same order, same
// resize-trigger points on the logical access clock, same fault
// schedule, same region placement (the round-robin home cursor is a
// deterministic function of creation order). Byte-identity of every
// recomputed Result plus the end-state ledgers, histograms, telemetry
// and decision logs proves the network layer added no semantic drift.

// ReplayOptions is accepted and ignored: a replay always runs the
// serial Simulator path.
//
// Deprecated: its only field selected the removed sharded engine.
// _bench/serve.go is the last caller that passes it.
type ReplayOptions struct{}

// ReplayError reports a divergence between the journal and the offline
// recomputation, naming the 1-based access sequence number.
type ReplayError struct {
	Seq    uint64
	Reason string
}

func (e *ReplayError) Error() string {
	return fmt.Sprintf("server: replay diverged at seq %d: %s", e.Seq, e.Reason)
}

// Replay is the reconstructed offline state, ready for end-state
// comparison against the live server's simulator.
type Replay struct {
	Sim      *molcache.Simulator
	Tracer   *telemetry.Tracer
	Registry *telemetry.Registry
	Config   JournalConfig
	// Accesses is the number of admitted accesses replayed; Tenants the
	// number of distinct tenant registrations seen.
	Accesses uint64
	Tenants  int
}

// ReplayJournal replays a journal stream through a fresh simulator,
// asserting per-access Result identity against the journaled Results.
func ReplayJournal(r io.Reader, _ ReplayOptions) (*Replay, error) {
	cfg, frames, err := ReadJournal(r)
	if err != nil {
		return nil, err
	}
	sim, err := molcache.NewSimulator(cfg.Molecular, cfg.Resize)
	if err != nil {
		return nil, err
	}
	rep := &Replay{
		Sim:      sim,
		Tracer:   telemetry.NewTracer(cfg.EventRing),
		Registry: telemetry.NewRegistry(),
		Config:   cfg,
	}
	sim.AttachTelemetry(rep.Tracer, rep.Registry)
	if err := sim.InjectFaults(cfg.Faults); err != nil {
		return nil, err
	}
	var seq uint64
	for _, f := range frames {
		switch {
		case f.Tenant != nil:
			rec := f.Tenant
			if rec.Update {
				if err := sim.Controller.SetGoal(rec.ASID, rec.Goal); err != nil {
					return nil, &ReplayError{Seq: seq, Reason: err.Error()}
				}
				continue
			}
			if _, err := sim.Cache.CreateRegion(rec.ASID, molecular.RegionOptions{
				HomeCluster: -1, HomeTile: -1, LineFactor: rec.LineFactor,
			}); err != nil {
				return nil, &ReplayError{Seq: seq, Reason: err.Error()}
			}
			if err := sim.Controller.SetGoal(rec.ASID, rec.Goal); err != nil {
				return nil, &ReplayError{Seq: seq, Reason: err.Error()}
			}
			rep.Tenants++
		case f.Batch != nil:
			rec := f.Batch
			results := sim.AccessBatch(rec.Refs)
			for i := range results {
				if results[i] != rec.Results[i] {
					return nil, &ReplayError{
						Seq: rec.First + uint64(i),
						Reason: fmt.Sprintf("recomputed %+v, journal has %+v (ref %+v)",
							results[i], rec.Results[i], rec.Refs[i]),
					}
				}
			}
			seq += uint64(len(rec.Refs))
		}
	}
	rep.Accesses = seq
	return rep, nil
}

// ReplayJournalFile is ReplayJournal over a file.
func ReplayJournalFile(path string, opts ReplayOptions) (*Replay, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("server: open journal: %w", err)
	}
	defer f.Close()
	return ReplayJournal(f, opts)
}
