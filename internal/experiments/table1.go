package experiments

import (
	"context"

	"molcache/internal/addr"
	"molcache/internal/cache"
	"molcache/internal/cmp"
	"molcache/internal/runner"
)

// Table1Row is one row of the interference study: the L2 miss rate each
// application sees when run in the given company on a shared 1 MB 4-way
// L2 (the paper's Table 1).
type Table1Row struct {
	// Apps lists the concurrently running benchmarks.
	Apps []string
	// MissRate maps each benchmark in Apps to its L2 miss rate.
	MissRate map[string]float64
}

// Table1Combos are the paper's combinations: each benchmark alone, all
// six pairs, and all four together.
func Table1Combos() []mixSpec {
	singles := []mixSpec{{"art"}, {"mcf"}, {"ammp"}, {"parser"}}
	pairs := []mixSpec{
		{"art", "mcf"}, {"art", "ammp"}, {"art", "parser"},
		{"mcf", "ammp"}, {"mcf", "parser"}, {"ammp", "parser"},
	}
	all := []mixSpec{{"art", "mcf", "ammp", "parser"}}
	out := append(append(singles, pairs...), all...)
	return out
}

// Table1 runs the interference experiment. Every combination runs for
// opt.ProcessorRefs references split round-robin across its cores; the
// eleven combinations are independent CMP simulations, so they fan out
// across opt.Jobs workers with rows kept in combination order.
func Table1(opt Options) ([]Table1Row, error) {
	opt = opt.withDefaults()
	return runner.Map(context.Background(), opt.pool("table1"), Table1Combos(),
		func(ctx context.Context, _ int, mix mixSpec) (Table1Row, error) {
			if err := ctx.Err(); err != nil {
				return Table1Row{}, err
			}
			l2 := cache.MustNew(cache.Config{Size: 1 * addr.MB, Ways: 4, LineSize: 64})
			if _, err := cmp.RunMix(l2, mix, opt.ProcessorRefs, opt.Seed, false); err != nil {
				return Table1Row{}, err
			}
			row := Table1Row{Apps: mix, MissRate: make(map[string]float64, len(mix))}
			for i, name := range mix {
				row.MissRate[name] = l2.Ledger().App(uint16(i + 1)).MissRate()
			}
			return row, nil
		})
}

// Standalone returns the miss rate a benchmark sees alone from a Table1
// result set (helper for interference analysis).
func Standalone(rows []Table1Row, app string) (float64, bool) {
	for _, r := range rows {
		if len(r.Apps) == 1 && r.Apps[0] == app {
			return r.MissRate[app], true
		}
	}
	return 0, false
}
