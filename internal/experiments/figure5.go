package experiments

import (
	"context"
	"sort"

	"molcache/internal/addr"
	"molcache/internal/cache"
	"molcache/internal/cmp"
	"molcache/internal/metrics"
	"molcache/internal/molecular"
	"molcache/internal/resize"
	"molcache/internal/runner"
	"molcache/internal/stats"
	"molcache/internal/trace"
)

// Figure5Mix is the four-benchmark SPEC mix of the Figure 5 study, in
// core/ASID order (ASIDs 1..4).
var Figure5Mix = mixSpec{"art", "mcf", "ammp", "parser"}

// Figure5Sizes are the evaluated total cache sizes.
var Figure5Sizes = []uint64{1 * addr.MB, 2 * addr.MB, 4 * addr.MB, 8 * addr.MB}

// Figure5Configs names the evaluated configurations in plot order.
var Figure5Configs = []string{
	"DM", "2-way", "4-way", "8-way", "Molecular (Random)", "Molecular (Randy)",
}

// Figure5Point is one (configuration, size) cell of Figure 5: the average
// deviation from the 10% miss-rate goal, for Graph A (goal on all four
// benchmarks) and Graph B (goal on art, ammp and parser only).
type Figure5Point struct {
	Config     string
	Size       uint64
	DeviationA float64
	DeviationB float64
	// PerAppMiss records the per-benchmark miss rates behind the
	// deviations (Graph A run for molecular configs).
	PerAppMiss map[string]float64
}

// figure5Goal is the paper's miss-rate goal for this study.
const figure5Goal = 0.10

// figure5GoalsA covers all four benchmarks, figure5GoalsB exempts mcf.
func figure5GoalsA() metrics.Goals { return metrics.UniformGoals(figure5Goal, 1, 2, 3, 4) }
func figure5GoalsB() metrics.Goals { return metrics.UniformGoals(figure5Goal, 1, 3, 4) }

// resizeGoals converts a metrics goal set into resize-controller goals.
func resizeGoals(g metrics.Goals) map[uint16]float64 {
	out := make(map[uint16]float64, len(g))
	for asid, goal := range g {
		out[asid] = goal
	}
	return out
}

// figure5Cell is one (configuration, size) simulation point of the study.
type figure5Cell struct {
	name   string
	size   uint64
	ways   int                       // traditional cells
	policy molecular.ReplacementKind // molecular cells ("" = traditional)
}

// figure5Cells enumerates the grid in deterministic order.
func figure5Cells() []figure5Cell {
	var cells []figure5Cell
	for _, size := range Figure5Sizes {
		for _, tc := range []struct {
			ways int
			name string
		}{{1, "DM"}, {2, "2-way"}, {4, "4-way"}, {8, "8-way"}} {
			cells = append(cells, figure5Cell{name: tc.name, size: size, ways: tc.ways})
		}
		for _, policy := range []molecular.ReplacementKind{
			molecular.RandomReplacement, molecular.RandyReplacement,
		} {
			cells = append(cells, figure5Cell{
				name:   "Molecular (" + string(policy) + ")",
				size:   size,
				policy: policy,
			})
		}
	}
	return cells
}

// Figure5 runs the study: one captured L1-miss trace of the concurrent
// four-benchmark mix, replayed into every (configuration, size) cell.
// The 24 cells are independent replays of the shared immutable trace, so
// they fan out across opt.Jobs workers. Traditional caches are
// goal-blind, so one replay serves both graphs; molecular caches resize
// toward their goals, so Graph A and Graph B get separate runs and the
// reported deviation comes from each run's own goal set.
func Figure5(opt Options) ([]Figure5Point, error) {
	opt = opt.withDefaults()
	refs, err := cmp.CaptureMix(Figure5Mix, opt.ProcessorRefs, opt.Seed)
	if err != nil {
		return nil, err
	}
	points, err := runner.Map(context.Background(), opt.pool("figure5"), figure5Cells(),
		func(ctx context.Context, _ int, cell figure5Cell) (Figure5Point, error) {
			if cell.policy == "" {
				c, err := replayTraditional(ctx, cache.Config{
					Size: cell.size, Ways: cell.ways, LineSize: 64,
				}, refs)
				if err != nil {
					return Figure5Point{}, err
				}
				return Figure5Point{
					Config:     cell.name,
					Size:       cell.size,
					DeviationA: metrics.AverageDeviation(c.Ledger(), figure5GoalsA()),
					DeviationB: metrics.AverageDeviation(c.Ledger(), figure5GoalsB()),
					PerAppMiss: perAppMiss(c.Ledger(), Figure5Mix),
				}, nil
			}
			p := Figure5Point{Config: cell.name, Size: cell.size}
			runA, err := figure5Molecular(ctx, cell.size, cell.policy, figure5GoalsA(), refs, opt.Seed)
			if err != nil {
				return Figure5Point{}, err
			}
			p.DeviationA = metrics.AverageDeviation(runA.Cache.Ledger(), figure5GoalsA())
			p.PerAppMiss = perAppMiss(runA.Cache.Ledger(), Figure5Mix)
			runB, err := figure5Molecular(ctx, cell.size, cell.policy, figure5GoalsB(), refs, opt.Seed)
			if err != nil {
				return Figure5Point{}, err
			}
			p.DeviationB = metrics.AverageDeviation(runB.Cache.Ledger(), figure5GoalsB())
			return p, nil
		})
	if err != nil {
		return nil, err
	}
	sortFigure5(points)
	return points, nil
}

// figure5Molecular replays into the 4-tile molecular configuration with
// app i pinned to tile i-1 (the paper's static processor-tile binding).
func figure5Molecular(ctx context.Context, size uint64, policy molecular.ReplacementKind,
	goals metrics.Goals, refs []trace.Ref, seed uint64) (*molecularRun, error) {
	placements := map[uint16]placement{}
	for asid := uint16(1); asid <= 4; asid++ {
		placements[asid] = placement{Cluster: 0, Tile: int(asid - 1)}
	}
	return replayMolecular(ctx,
		fourTileMolecular(size, policy, seed),
		resize.Config{Trigger: resize.AdaptiveGlobal, Goals: resizeGoals(goals)},
		placements, refs)
}

// perAppMiss extracts miss rates keyed by benchmark name.
func perAppMiss(l *stats.Ledger, mix mixSpec) map[string]float64 {
	out := make(map[string]float64, len(mix))
	for i, name := range mix {
		out[name] = l.App(uint16(i + 1)).MissRate()
	}
	return out
}

// sortFigure5 orders points by size then configuration plot order.
func sortFigure5(points []Figure5Point) {
	rank := map[string]int{}
	for i, n := range Figure5Configs {
		rank[n] = i
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].Size != points[j].Size {
			return points[i].Size < points[j].Size
		}
		return rank[points[i].Config] < rank[points[j].Config]
	})
}
