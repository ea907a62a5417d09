// Package experiments reproduces every table and figure of the paper's
// evaluation section. Each experiment is a pure function from Options to
// typed result rows; cmd/experiments renders them and bench_test.go wraps
// each as a benchmark.
//
// Methodology (mirroring the paper's): the CMP substrate (internal/cmp,
// standing in for SESC) runs the workload models and captures the L1-miss
// reference stream; that stream is replayed into each cache under study
// (internal/cache / internal/molecular, standing in for the modified
// Dinero); CACTI-style power numbers come from internal/power.
package experiments

import (
	"context"
	"fmt"
	"sort"

	"molcache/internal/cache"
	"molcache/internal/engine"
	"molcache/internal/molecular"
	"molcache/internal/resize"
	"molcache/internal/runner"
	"molcache/internal/telemetry"
	"molcache/internal/trace"
)

// Options scales the experiments. The zero value gets defaults sized for
// the full reproduction; tests and quick runs shrink ProcessorRefs.
type Options struct {
	// ProcessorRefs is the number of per-experiment processor-side
	// references driven through the CMP (the L2 sees roughly 10-20% of
	// them after L1 filtering; the paper's L2 traces hold 3.9M refs).
	ProcessorRefs int
	// Seed makes every stochastic choice reproducible.
	Seed uint64
	// Jobs is the worker count for the independent simulation points of
	// each experiment (0 = GOMAXPROCS, 1 = serial). Every experiment's
	// result is identical at any worker count: jobs share only immutable
	// captured traces and results are collected in submission order.
	Jobs int
	// Tracer and Registry, when set, receive the scheduler's job events
	// and runner_* progress metrics.
	Tracer   *telemetry.Tracer
	Registry *telemetry.Registry
}

func (o Options) withDefaults() Options {
	if o.ProcessorRefs == 0 {
		o.ProcessorRefs = 48_000_000
	}
	if o.Seed == 0 {
		o.Seed = 2006 // the paper's publication year; any constant works
	}
	return o
}

// pool builds the job scheduler for one experiment's fan-out.
func (o Options) pool(label string) runner.Pool {
	return runner.Pool{
		Workers:  o.Jobs,
		Label:    label,
		Tracer:   o.Tracer,
		Registry: o.Registry,
	}
}

// mixSpec names the applications of one concurrent mix, in core order;
// ASIDs are assigned 1..n (cmp.MixApp).
type mixSpec []string

// replayTraditional replays refs into a fresh traditional cache and
// returns it for inspection. Replay stops early if ctx is cancelled
// (another job of the batch failed).
func replayTraditional(ctx context.Context, cfg cache.Config, refs []trace.Ref) (*cache.Cache, error) {
	c, err := cache.New(cfg)
	if err != nil {
		return nil, err
	}
	if _, _, err := engine.RunContext(ctx, c, refs); err != nil {
		return nil, err
	}
	return c, nil
}

// molecularRun couples a molecular cache with its resize controller.
type molecularRun struct {
	Cache *molecular.Cache
	Ctrl  *resize.Controller
}

// placement pins an application's partition to a home cluster and tile.
type placement struct{ Cluster, Tile int }

// replayMolecular replays refs into a fresh molecular cache driven by a
// resize controller with the given goals. Applications are admitted on
// first touch unless placements pre-assigns their homes. Replay checks
// ctx every few thousand references so a failed batch cancels promptly.
func replayMolecular(ctx context.Context, mcfg molecular.Config, rcfg resize.Config,
	placements map[uint16]placement, refs []trace.Ref) (*molecularRun, error) {
	mc, err := molecular.New(mcfg)
	if err != nil {
		return nil, err
	}
	// Create regions in ASID order: CreateRegion assigns home tiles and
	// molecule placements as it goes, so map-order iteration would give
	// each run a different layout.
	asids := make([]uint16, 0, len(placements))
	for asid := range placements {
		asids = append(asids, asid)
	}
	sort.Slice(asids, func(i, j int) bool { return asids[i] < asids[j] })
	for _, asid := range asids {
		p := placements[asid]
		if _, err := mc.CreateRegion(asid, molecular.RegionOptions{
			HomeCluster: p.Cluster,
			HomeTile:    p.Tile,
		}); err != nil {
			return nil, fmt.Errorf("experiments: placing ASID %d: %w", asid, err)
		}
	}
	ctrl, err := resize.New(mc, rcfg)
	if err != nil {
		return nil, err
	}
	for i, r := range refs {
		if i&0x3fff == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		mc.Access(r)
		ctrl.Tick()
	}
	return &molecularRun{Cache: mc, Ctrl: ctrl}, nil
}

// fourTileMolecular is Figure 5's molecular configuration: 4 tiles in one
// cluster, tile size = total/4, 8 KB molecules.
func fourTileMolecular(totalSize uint64, policy molecular.ReplacementKind, seed uint64) molecular.Config {
	return molecular.Config{
		TotalSize:       totalSize,
		MoleculeSize:    8 << 10,
		LineSize:        64,
		TilesPerCluster: 4,
		Clusters:        1,
		Policy:          policy,
		Seed:            seed,
	}
}
