package experiments

import (
	"context"
	"fmt"

	"molcache/internal/addr"
	"molcache/internal/cache"
	"molcache/internal/cmp"
	"molcache/internal/metrics"
	"molcache/internal/molecular"
	"molcache/internal/resize"
	"molcache/internal/runner"
	"molcache/internal/trace"
	"molcache/internal/workload"
)

// Table2Mix is the twelve-benchmark SPEC+NetBench+MediaBench mix
// (ASIDs 1..12 in this order).
var Table2Mix = mixSpec(workload.MixedNames)

// table2Goal is the paper's miss-rate goal for the mixed study.
const table2Goal = 0.25

// Table2Row is one cache's average deviation from the 25% goal.
type Table2Row struct {
	Name      string
	Deviation float64
}

// Table2Result carries the deviation table plus the molecular-run
// details that Figure 6, Table 4 and Table 5 reuse.
type Table2Result struct {
	Rows []Table2Row
	// Randy and Random are the 6 MB molecular runs.
	Randy, Random *molecularRun
	// Trace is the captured L1-miss stream (reused by Table 4's 8 MB
	// molecular probe measurement).
	Trace []trace.Ref
}

// table2Goals puts the uniform goal on every mixed-workload application.
func table2Goals() metrics.Goals {
	asids := make([]uint16, len(Table2Mix))
	for i := range Table2Mix {
		asids[i] = uint16(i + 1)
	}
	return metrics.UniformGoals(table2Goal, asids...)
}

// sixMBMolecular is the paper's 6 MB configuration: 3 tile clusters of
// 4 tiles, 512 KB per tile, 8 KB molecules.
func sixMBMolecular(policy molecular.ReplacementKind, seed uint64) molecular.Config {
	return molecular.Config{
		TotalSize:       6 * addr.MB,
		MoleculeSize:    8 * addr.KB,
		LineSize:        64,
		TilesPerCluster: 4,
		Clusters:        3,
		Policy:          policy,
		Seed:            seed,
	}
}

// table2Placements groups the twelve applications into three groups of
// four, one tile cluster per group, "without giving consideration to the
// nature of the mix" (ASID order), app j of a group on tile j.
func table2Placements() map[uint16]placement {
	out := make(map[uint16]placement, 12)
	for i := 0; i < 12; i++ {
		out[uint16(i+1)] = placement{Cluster: i / 4, Tile: i % 4}
	}
	return out
}

// table2Point is one simulation of the study: a traditional geometry
// (Molecular == "") or a 6 MB molecular policy.
type table2Point struct {
	size      uint64
	ways      int
	Molecular molecular.ReplacementKind
}

// table2Outcome carries a point's deviation row plus, for molecular
// points, the run the downstream experiments (Figure 6, Tables 4-5) mine.
type table2Outcome struct {
	row Table2Row
	run *molecularRun
}

// Table2 runs the mixed-workload study: capture once, then fan the four
// traditional configurations and the two 6 MB molecular caches out as
// independent replays of the shared trace. Row order is fixed by the
// point list, not by completion order.
func Table2(opt Options) (*Table2Result, error) {
	opt = opt.withDefaults()
	refs, err := cmp.CaptureMix(Table2Mix, opt.ProcessorRefs, opt.Seed)
	if err != nil {
		return nil, err
	}
	goals := table2Goals()
	points := []table2Point{
		{size: 4 * addr.MB, ways: 4}, {size: 4 * addr.MB, ways: 8},
		{size: 8 * addr.MB, ways: 4}, {size: 8 * addr.MB, ways: 8},
		{Molecular: molecular.RandyReplacement},
		{Molecular: molecular.RandomReplacement},
	}
	outcomes, err := runner.Map(context.Background(), opt.pool("table2"), points,
		func(ctx context.Context, _ int, pt table2Point) (table2Outcome, error) {
			if pt.Molecular == "" {
				c, err := replayTraditional(ctx, cache.Config{
					Size: pt.size, Ways: pt.ways, LineSize: 64,
				}, refs)
				if err != nil {
					return table2Outcome{}, err
				}
				return table2Outcome{row: Table2Row{
					Name:      c.Name(),
					Deviation: metrics.AverageDeviation(c.Ledger(), goals),
				}}, nil
			}
			rcfg := resize.Config{Trigger: resize.AdaptiveGlobal, Goals: resizeGoals(goals)}
			run, err := replayMolecular(ctx,
				sixMBMolecular(pt.Molecular, opt.Seed), rcfg, table2Placements(), refs)
			if err != nil {
				return table2Outcome{}, err
			}
			return table2Outcome{
				row: Table2Row{
					Name:      run.Cache.Name(),
					Deviation: metrics.AverageDeviation(run.Cache.Ledger(), goals),
				},
				run: run,
			}, nil
		})
	if err != nil {
		return nil, err
	}
	res := &Table2Result{Trace: refs}
	for i, out := range outcomes {
		res.Rows = append(res.Rows, out.row)
		switch points[i].Molecular {
		case molecular.RandyReplacement:
			res.Randy = out.run
		case molecular.RandomReplacement:
			res.Random = out.run
		}
	}
	return res, nil
}

// Figure6Row is one benchmark's hit-rate-per-molecule under each policy.
type Figure6Row struct {
	Benchmark string
	RandyHPM  float64
	RandomHPM float64
}

// Figure6Result carries the per-benchmark HPM plus the aggregate claims
// the paper makes alongside the figure (overall miss rates and molecule
// usage of the two policies).
type Figure6Result struct {
	Rows []Figure6Row
	// RandyMissRate and RandomMissRate are overall miss rates (the
	// paper reports Randy ~9% lower).
	RandyMissRate, RandomMissRate float64
	// RandyMolecules and RandomMolecules are total time-weighted
	// average molecules in use (the paper reports Randy ~5% higher).
	RandyMolecules, RandomMolecules float64
}

// Figure6 derives the HPM comparison from a Table2 result.
func Figure6(t2 *Table2Result) *Figure6Result {
	out := &Figure6Result{
		RandyMissRate:  t2.Randy.Cache.Ledger().Total.MissRate(),
		RandomMissRate: t2.Random.Cache.Ledger().Total.MissRate(),
	}
	for i, name := range Table2Mix {
		asid := uint16(i + 1)
		row := Figure6Row{Benchmark: name}
		if r := t2.Randy.Cache.Region(asid); r != nil {
			row.RandyHPM = metrics.ComputeHPM(asid, name, r.Ledger(), r.AverageMolecules()).Value
			out.RandyMolecules += r.AverageMolecules()
		}
		if r := t2.Random.Cache.Region(asid); r != nil {
			row.RandomHPM = metrics.ComputeHPM(asid, name, r.Ledger(), r.AverageMolecules()).Value
			out.RandomMolecules += r.AverageMolecules()
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// String summarises the aggregate comparison.
func (f *Figure6Result) String() string {
	return fmt.Sprintf("Randy miss %.4f vs Random %.4f; Randy molecules %.1f vs Random %.1f",
		f.RandyMissRate, f.RandomMissRate, f.RandyMolecules, f.RandomMolecules)
}
