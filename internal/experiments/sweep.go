package experiments

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"molcache/internal/addr"
	"molcache/internal/cmp"
	"molcache/internal/metrics"
	"molcache/internal/molecular"
	"molcache/internal/resize"
	"molcache/internal/runner"
	"molcache/internal/telemetry"
	"molcache/internal/trace"
)

// SweepOptions configures the parameter-sensitivity sweep (cmd/sweep).
// The zero value gets the CLI's defaults.
type SweepOptions struct {
	// ProcessorRefs is the trace-capture length (default 16M).
	ProcessorRefs int
	// Seed drives every stochastic choice (default 2006).
	Seed uint64
	// Goal is the per-application miss-rate goal (default 0.10).
	Goal float64
	// Sizes, MoleculeSizes, Policies and LineFactors span the grid; each
	// defaults to the CLI's sweep set when empty.
	Sizes         []uint64
	MoleculeSizes []uint64
	Policies      []molecular.ReplacementKind
	LineFactors   []int
	// Jobs is the worker count (0 = GOMAXPROCS, 1 = serial). The rows are
	// identical at any worker count: every point replays the same
	// immutable captured trace and rows come back in grid order.
	Jobs int
	// Tracer and Registry, when set, observe the scheduler: job events
	// and the runner_* metrics. No grid point attaches its simulation
	// metrics, since one registry cannot tell unlike configurations
	// apart.
	Tracer   *telemetry.Tracer
	Registry *telemetry.Registry
}

func (o SweepOptions) withDefaults() SweepOptions {
	if o.ProcessorRefs == 0 {
		o.ProcessorRefs = 16_000_000
	}
	if o.Seed == 0 {
		o.Seed = 2006
	}
	if o.Goal == 0 {
		o.Goal = 0.10
	}
	if len(o.Sizes) == 0 {
		o.Sizes = []uint64{1 * addr.MB, 2 * addr.MB, 4 * addr.MB, 8 * addr.MB}
	}
	if len(o.MoleculeSizes) == 0 {
		o.MoleculeSizes = []uint64{8 * addr.KB, 16 * addr.KB, 32 * addr.KB}
	}
	if len(o.Policies) == 0 {
		o.Policies = []molecular.ReplacementKind{
			molecular.RandomReplacement, molecular.RandyReplacement, molecular.LRUDirect,
		}
	}
	if len(o.LineFactors) == 0 {
		o.LineFactors = []int{1}
	}
	return o
}

// SweepRow is one grid point's outcome. Infeasible geometries (e.g. a
// molecule larger than its tile) carry the reason in Skip and no Cells;
// they do not fail the batch.
type SweepRow struct {
	Size, MoleculeSize uint64
	Policy             molecular.ReplacementKind
	LineFactor         int
	// Cells is the CSV record (nil when Skip is set).
	Cells []string
	Skip  error
}

// Point renders the grid coordinates ("1MB/8KB/Randy/x1") for messages.
func (r SweepRow) Point() string {
	return fmt.Sprintf("%s/%s/%s/x%d",
		addr.Bytes(r.Size), addr.Bytes(r.MoleculeSize), r.Policy, r.LineFactor)
}

// SweepHeader is the CSV header row.
var SweepHeader = []string{
	"total_size", "molecule_size", "policy", "line_factor",
	"avg_deviation", "overall_miss_rate", "avg_probes", "free_molecules",
}

// Sweep captures the four-benchmark SPEC mix's L1-miss stream once and
// replays it into every (size, molecule, policy, line factor) combination,
// fanned across opt.Jobs workers. Rows come back in grid order (sizes
// outermost, line factors innermost), exactly the serial CLI's order.
func Sweep(opt SweepOptions) ([]SweepRow, error) {
	opt = opt.withDefaults()
	refs, err := cmp.CaptureMix(Figure5Mix, opt.ProcessorRefs, opt.Seed)
	if err != nil {
		return nil, err
	}
	goals := metrics.UniformGoals(opt.Goal, 1, 2, 3, 4)
	var points []SweepRow
	for _, size := range opt.Sizes {
		for _, mol := range opt.MoleculeSizes {
			for _, pol := range opt.Policies {
				for _, lf := range opt.LineFactors {
					points = append(points, SweepRow{
						Size: size, MoleculeSize: mol, Policy: pol, LineFactor: lf,
					})
				}
			}
		}
	}
	pool := runner.Pool{
		Workers:  opt.Jobs,
		Label:    "sweep",
		Tracer:   opt.Tracer,
		Registry: opt.Registry,
	}
	return runner.Map(context.Background(), pool, points,
		func(ctx context.Context, _ int, pt SweepRow) (SweepRow, error) {
			cells, err := sweepOne(ctx, pt, goals, refs, opt.Seed)
			if err != nil {
				if ctx.Err() != nil {
					// Cancellation, not an infeasible geometry.
					return SweepRow{}, err
				}
				pt.Skip = err
				return pt, nil
			}
			pt.Cells = cells
			return pt, nil
		})
}

// sweepOne replays the trace into one configuration, each application
// on its own tile, and formats the CSV record, mirroring the serial CLI
// byte for byte.
func sweepOne(ctx context.Context, pt SweepRow, goals metrics.Goals,
	refs []trace.Ref, seed uint64) ([]string, error) {
	run, err := replayMolecular(ctx, molecular.Config{
		TotalSize:    pt.Size,
		MoleculeSize: pt.MoleculeSize,
		Policy:       pt.Policy,
		LineFactor:   pt.LineFactor,
		Seed:         seed,
	}, resize.Config{Goals: resizeGoals(goals)}, oneAppPerTile(4), refs)
	if err != nil {
		return nil, err
	}
	mc := run.Cache
	return []string{
		addr.Bytes(pt.Size),
		addr.Bytes(pt.MoleculeSize),
		string(pt.Policy),
		strconv.Itoa(pt.LineFactor),
		fmt.Sprintf("%.4f", metrics.AverageDeviation(mc.Ledger(), goals)),
		fmt.Sprintf("%.4f", mc.Ledger().Total.MissRate()),
		fmt.Sprintf("%.1f", mc.AverageProbes()),
		strconv.Itoa(mc.FreeMolecules()),
	}, nil
}

// WriteSweepCSV writes the header and every non-skipped row.
func WriteSweepCSV(w io.Writer, rows []SweepRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(SweepHeader); err != nil {
		return err
	}
	for _, r := range rows {
		if r.Skip != nil {
			continue
		}
		if err := cw.Write(r.Cells); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ParseSizes parses a comma-separated byte-size list ("1MB,512KB").
func ParseSizes(s string) ([]uint64, error) {
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		n, err := addr.ParseBytes(part)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

// ParsePolicies parses a comma-separated replacement-policy list.
func ParsePolicies(s string) ([]molecular.ReplacementKind, error) {
	var out []molecular.ReplacementKind
	for _, part := range strings.Split(s, ",") {
		p, err := molecular.ParsePolicy(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// ParseInts parses a comma-separated integer list.
func ParseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
