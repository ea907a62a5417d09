package experiments

import (
	"context"
	"sort"

	"molcache/internal/addr"
	"molcache/internal/cache"
	"molcache/internal/cmp"
	"molcache/internal/engine"
	"molcache/internal/metrics"
	"molcache/internal/molecular"
	"molcache/internal/partition"
	"molcache/internal/runner"
	"molcache/internal/stackdist"
	"molcache/internal/stats"
	"molcache/internal/trace"
)

// RelatedWorkRow compares one partitioning scheme from the paper's
// related-work section against the molecular cache on the four-benchmark
// SPEC mix (2 MB total, 10% miss-rate goal on the three feasible
// applications — Figure 5's Graph B criterion, evaluated at its 2 MB
// crossover size).
type RelatedWorkRow struct {
	Name      string
	Deviation float64
	// PerAppMiss records each benchmark's miss rate.
	PerAppMiss map[string]float64
}

// relatedSize is the study's total capacity: 2 MB is where Figure 5's
// Graph B shows the schemes separating.
const relatedSize = 2 * addr.MB

// RelatedWork runs the comparison: unmanaged shared LRU, Suh's
// ModifiedLRU (equal block quotas and oracle quotas), column caching
// (equal way split), a POCA-style home-bank cache, and the molecular
// cache (both policies, resized toward the goal). One captured trace
// serves every scheme; the seven schemes are independent replays of it,
// fanned across opt.Jobs workers with rows kept in scheme order.
func RelatedWork(opt Options) ([]RelatedWorkRow, error) {
	opt = opt.withDefaults()
	refs, err := cmp.CaptureMix(Figure5Mix, opt.ProcessorRefs, opt.Seed)
	if err != nil {
		return nil, err
	}
	goals := figure5GoalsB()

	// row builds the standard result row from any scheme's ledger.
	row := func(c engine.Cache, ledger ledgerer) RelatedWorkRow {
		return RelatedWorkRow{
			Name:       c.Name(),
			Deviation:  metrics.AverageDeviation(ledger.Ledger(), goals),
			PerAppMiss: perAppMiss(ledger.Ledger(), Figure5Mix),
		}
	}
	// replay drives refs through a scheme with periodic ctx checks.
	replay := func(ctx context.Context, c engine.Cache) error {
		_, _, err := engine.RunContext(ctx, c, refs)
		return err
	}

	jobs := []runner.Job[RelatedWorkRow]{
		{Name: "shared-lru", Run: func(ctx context.Context) (RelatedWorkRow, error) {
			shared, err := replayTraditional(ctx, cache.Config{
				Size: relatedSize, Ways: 8, LineSize: 64,
			}, refs)
			if err != nil {
				return RelatedWorkRow{}, err
			}
			return row(shared, shared), nil
		}},
		{Name: "modified-lru", Run: func(ctx context.Context) (RelatedWorkRow, error) {
			// Suh's ModifiedLRU with equal block quotas.
			mlru, err := partition.NewModifiedLRU(relatedSize, 8, 64, relatedSize/64/4)
			if err != nil {
				return RelatedWorkRow{}, err
			}
			if err := replay(ctx, mlru); err != nil {
				return RelatedWorkRow{}, err
			}
			return row(mlru, mlru), nil
		}},
		{Name: "modified-lru-oracle", Run: func(ctx context.Context) (RelatedWorkRow, error) {
			// A stack-distance profile of the same trace feeds Suh's
			// marginal-gain allocator with perfect information — the
			// strongest static baseline.
			omlru, err := oracleModifiedLRU(refs, goals)
			if err != nil {
				return RelatedWorkRow{}, err
			}
			if err := replay(ctx, omlru); err != nil {
				return RelatedWorkRow{}, err
			}
			return RelatedWorkRow{
				Name:       "2MB 8-way ModifiedLRU (oracle quotas)",
				Deviation:  metrics.AverageDeviation(omlru.Ledger(), goals),
				PerAppMiss: perAppMiss(omlru.Ledger(), Figure5Mix),
			}, nil
		}},
		{Name: "column-cache", Run: func(ctx context.Context) (RelatedWorkRow, error) {
			col, err := partition.NewColumnCache(relatedSize, 8, 64)
			if err != nil {
				return RelatedWorkRow{}, err
			}
			if err := col.AssignEqualColumns(1, 2, 3, 4); err != nil {
				return RelatedWorkRow{}, err
			}
			if err := replay(ctx, col); err != nil {
				return RelatedWorkRow{}, err
			}
			return row(col, col), nil
		}},
		{Name: "home-bank", Run: func(ctx context.Context) (RelatedWorkRow, error) {
			// POCA-style home banks: one 512 KB bank per application.
			hb, err := partition.NewHomeBank(4, relatedSize/4, 4, 64)
			if err != nil {
				return RelatedWorkRow{}, err
			}
			for asid := uint16(1); asid <= 4; asid++ {
				if err := hb.SetHome(asid, int(asid-1)); err != nil {
					return RelatedWorkRow{}, err
				}
			}
			if err := replay(ctx, hb); err != nil {
				return RelatedWorkRow{}, err
			}
			return row(hb, hb), nil
		}},
	}
	// The molecular cache with goal-driven resizing, both policies.
	for _, policy := range []molecular.ReplacementKind{
		molecular.RandomReplacement, molecular.RandyReplacement,
	} {
		policy := policy
		jobs = append(jobs, runner.Job[RelatedWorkRow]{
			Name: "molecular-" + string(policy),
			Run: func(ctx context.Context) (RelatedWorkRow, error) {
				run, err := figure5Molecular(ctx, relatedSize, policy, goals, refs, opt.Seed)
				if err != nil {
					return RelatedWorkRow{}, err
				}
				return row(run.Cache, run.Cache), nil
			},
		})
	}
	return runner.Run(context.Background(), opt.pool("related"), jobs)
}

// oracleModifiedLRU profiles refs and builds a ModifiedLRU with the
// stack-distance oracle's per-application quotas.
func oracleModifiedLRU(refs []trace.Ref, goals metrics.Goals) (*partition.ModifiedLRU, error) {
	prof := stackdist.New(64)
	for _, r := range refs {
		prof.Record(r.ASID, r.Addr)
	}
	curves := map[uint16]*stackdist.Curve{}
	for _, a := range prof.ASIDs() {
		c, err := prof.Curve(a)
		if err != nil {
			return nil, err
		}
		curves[a] = c
	}
	oracleGoals := map[uint16]float64{}
	for asid, g := range goals {
		oracleGoals[asid] = g
	}
	alloc, err := stackdist.OraclePartition(curves, oracleGoals,
		int(relatedSize/64), 128 /* one 8KB molecule of lines */)
	if err != nil {
		return nil, err
	}
	omlru, err := partition.NewModifiedLRU(relatedSize, 8, 64, 1)
	if err != nil {
		return nil, err
	}
	// Quotas land in ASID order; SetQuota reshuffles way ownership as it
	// runs, so map-order iteration would vary the initial layout.
	asids := make([]uint16, 0, len(alloc.Lines))
	for asid := range alloc.Lines {
		asids = append(asids, asid)
	}
	sort.Slice(asids, func(i, j int) bool { return asids[i] < asids[j] })
	for _, asid := range asids {
		omlru.SetQuota(asid, uint64(alloc.Lines[asid]))
	}
	return omlru, nil
}

// ledgerer is the per-ASID accounting every scheme here exposes.
type ledgerer interface {
	Ledger() *stats.Ledger
}
