package molecular

import (
	"fmt"

	"molcache/internal/engine"
	"molcache/internal/rng"
	"molcache/internal/stats"
)

// ReplacementKind selects the molecule-selection policy for a region.
type ReplacementKind string

// The molecule-selection policies: the paper's two (Random over the whole
// region, Randy over the row-hashed replacement view) and LRU-Direct, the
// extension named in the paper's future-work section (approximate LRU
// across the molecules of the candidate row).
const (
	RandomReplacement ReplacementKind = "Random"
	RandyReplacement  ReplacementKind = "Randy"
	LRUDirect         ReplacementKind = "LRU-Direct"
)

// maxRows caps the replacement view's row count (the configured way size,
// rowMax). growSpread opens a region's rows at creation; later growth
// widens them.
const maxRows = 16

// Region is an application-specific cache partition: a set of molecules
// bound to one ASID, organized for replacement as a 2-D sparse matrix of
// rows with independent widths (heterogeneous per-row associativity).
type Region struct {
	asid       uint16
	home       *Tile
	policy     ReplacementKind
	lineFactor int // lines fetched per miss (fixed at creation)
	molSize    uint64

	// rows is the replacement view. Every molecule in the region
	// appears in exactly one row; rows[i][j].row == i.
	rows [][]*Molecule
	// byTile indexes the region's molecules by global tile ID for the
	// hierarchical lookup (home tile first, then Ulmo sweep). It is
	// preallocated to the cache's tile count so the access path never
	// allocates or hashes.
	byTile [][]*Molecule
	// index is the fast-path block index: block number → the slab line
	// holding it (see index.go for the maintenance contract).
	index blockMap
	count int

	// rowMiss counts replacements per row since the last epoch
	// (Randy's placement signal).
	rowMiss []uint64

	// appCell is this ASID's cell in the cache-wide ledger
	// (stats.Ledger.AppRef), cached at creation so the access path
	// records per-application counts without a lookup. It is the
	// region's lifetime count: the region exists before its ASID's
	// first access, and nothing else writes the cell.
	appCell *stats.HitMiss
	// window feeds the resize controller's periodic miss-rate reads: a
	// mark on appCell.
	window stats.Window

	// occupancySum accumulates the molecule count at every access so
	// HPM can use the time-weighted average partition size.
	occupancySum uint64

	src *rng.Source

	// noc records the accesses that paid a NoC fault penalty. Every
	// other access's service time follows from whether it hit, so noc
	// and appCell give the region's service-time distribution exactly.
	noc NoCPenalties
}

// serviceCycleBounds are the bucket bounds of a region's service-time
// histogram, molcache_access_service_cycles{asid}.
var serviceCycleBounds = [...]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// NoCPenalties describes a region's accesses that paid a NoC fault
// penalty: how many hit and missed, the penalty cycles they paid in
// all, and how many fell in each service-time bucket (the last is the
// +Inf bucket).
type NoCPenalties struct {
	Accesses stats.HitMiss                       `json:"accesses"`
	Cycles   uint64                              `json:"cycles"`
	Service  [len(serviceCycleBounds) + 1]uint64 `json:"service"`
}

// serviceCycles is an access's modelled service time: the L2-hit
// latency, the memory latency when the line was fetched, and the NoC
// penalty it paid.
func serviceCycles(hit bool, penalty uint64) uint64 {
	if hit {
		return engine.L2HitCycles + penalty
	}
	return engine.L2HitCycles + engine.MemoryCycles + penalty
}

// payNoC records an access of the region that paid penalty NoC cycles.
func (r *Region) payNoC(penalty uint64, hit bool) {
	r.noc.Accesses.Record(hit)
	r.noc.Cycles += penalty
	r.noc.Service[bucketOf(serviceCycleBounds[:], float64(serviceCycles(hit, penalty)))]++
}

// ASID returns the owning application's identifier.
func (r *Region) ASID() uint16 { return r.asid }

// HomeTile returns the region's home tile.
func (r *Region) HomeTile() *Tile { return r.home }

// Policy returns the molecule-selection policy.
func (r *Region) Policy() ReplacementKind { return r.policy }

// LineFactor returns the number of base lines fetched per miss.
func (r *Region) LineFactor() int { return r.lineFactor }

// MoleculeCount returns the current partition size in molecules.
func (r *Region) MoleculeCount() int { return r.count }

// Rows returns the widths of the replacement view's rows.
func (r *Region) Rows() []int {
	out := make([]int, len(r.rows))
	for i, row := range r.rows {
		out[i] = len(row)
	}
	return out
}

// RowMolecules returns the replacement view's members as molecule IDs,
// row-major — the checkpoint's view of the 2-D matrix.
func (r *Region) RowMolecules() [][]int {
	out := make([][]int, len(r.rows))
	for i, row := range r.rows {
		out[i] = make([]int, len(row))
		for j, m := range row {
			out[i][j] = m.id
		}
	}
	return out
}

// TileCounts returns the region's molecule count per physical tile ID
// (the byTile index the hierarchical lookup walks). Only tiles holding
// at least one molecule appear.
func (r *Region) TileCounts() map[int]int {
	out := make(map[int]int)
	for tid, ms := range r.byTile {
		if len(ms) > 0 {
			out[tid] = len(ms)
		}
	}
	return out
}

// RowMissCounts returns the per-row replacement counts for this epoch.
func (r *Region) RowMissCounts() []uint64 {
	out := make([]uint64, len(r.rowMiss))
	copy(out, r.rowMiss)
	return out
}

// Window exposes the resize controller's miss-rate window.
func (r *Region) Window() *stats.Window { return &r.window }

// Ledger returns the region's lifetime hit/miss counts: its ASID's cell
// of the cache's ledger.
func (r *Region) Ledger() stats.HitMiss { return *r.appCell }

// AverageMolecules returns the time-weighted average partition size, the
// denominator of the HPM metric.
func (r *Region) AverageMolecules() float64 {
	n := r.appCell.Accesses()
	if n == 0 {
		return float64(r.count)
	}
	return float64(r.occupancySum) / float64(n)
}

// ResetEpoch clears the per-epoch miss counters (molecules and rows)
// after a resize decision has consumed them.
func (r *Region) ResetEpoch() {
	for i := range r.rowMiss {
		r.rowMiss[i] = 0
	}
	for _, row := range r.rows {
		for _, m := range row {
			m.missCount = 0
		}
	}
}

// rowFor returns the replacement-view row for a block address per the
// paper's hash: row = (addr / moleculeSize) mod rowMax. Panics on a
// rowless region — regions are never created empty, so that is
// bookkeeping corruption, not an input error.
func (r *Region) rowFor(addrBytes uint64) int {
	if len(r.rows) == 0 {
		panic("molecular: region has no rows")
	}
	return int((addrBytes / r.molSize) % uint64(len(r.rows)))
}

// victim selects the molecule that receives the fill for addrBytes
// (whose block number is block), per the region's policy. Panics on a
// policy Config.Validate would have rejected.
func (r *Region) victim(addrBytes, block uint64) *Molecule {
	switch r.policy {
	case RandomReplacement:
		// The whole region is one logical row; draw uniformly.
		return r.nthMolecule(r.src.Intn(r.count))
	case RandyReplacement:
		row := r.rows[r.rowFor(addrBytes)]
		return row[r.src.Intn(len(row))]
	case LRUDirect:
		// Future-work extension: within the hashed row, pick the
		// molecule whose direct-mapped slot for this block is invalid
		// or least recently touched.
		row := r.rows[r.rowFor(addrBytes)]
		var best *Molecule
		var bestTouch uint64
		for _, m := range row {
			touch, valid := m.lineTouch(block)
			if !valid {
				return m
			}
			if best == nil || touch < bestTouch {
				best, bestTouch = m, touch
			}
		}
		return best
	default:
		panic("molecular: unknown replacement policy " + string(r.policy))
	}
}

// nthMolecule returns the i-th molecule in row-major order. Panics
// when i is outside [0, count) — callers draw indexes from r.count.
func (r *Region) nthMolecule(i int) *Molecule {
	for _, row := range r.rows {
		if i < len(row) {
			return row[i]
		}
		i -= len(row)
	}
	panic("molecular: molecule index out of range")
}

// molecules returns all molecules in the region (row-major).
func (r *Region) molecules() []*Molecule {
	out := make([]*Molecule, 0, r.count)
	for _, row := range r.rows {
		out = append(out, row...)
	}
	return out
}

// attach places molecule m into row rowIdx (which may equal len(rows) to
// open a new row) and binds its ASID. Panics if m is already owned or
// rowIdx is out of range; both mean the allocator and the region
// disagree about who holds what, and continuing would corrupt results.
func (r *Region) attach(m *Molecule, rowIdx int) {
	if m.owned {
		panic(fmt.Sprintf("molecular: molecule %d attached while owned", m.id))
	}
	if rowIdx < 0 || rowIdx > len(r.rows) || rowIdx >= maxRows {
		panic(fmt.Sprintf("molecular: bad row index %d (rows=%d)", rowIdx, len(r.rows)))
	}
	if rowIdx == len(r.rows) {
		r.rows = append(r.rows, nil)
		r.rowMiss = append(r.rowMiss, 0)
	}
	m.owned = true
	m.asid = r.asid
	m.row = rowIdx
	m.missCount = 0
	r.rows[rowIdx] = append(r.rows[rowIdx], m)
	r.byTile[m.tile.id] = append(r.byTile[m.tile.id], m)
	r.indexMolecule(m)
	r.count++
}

// detach removes m from the region, flushing its contents. It returns the
// number of dirty-line writebacks. The molecule is NOT released to its
// tile's free pool; the caller does that. Panics when m is not owned by
// this region or missing from its row — ownership corruption.
func (r *Region) detach(m *Molecule) (writebacks int) {
	if !m.owned || m.asid != r.asid {
		panic(fmt.Sprintf("molecular: detach of molecule %d not owned by region %d", m.id, r.asid))
	}
	row := r.rows[m.row]
	found := false
	for i, x := range row {
		if x == m {
			r.rows[m.row] = append(row[:i], row[i+1:]...)
			found = true
			break
		}
	}
	if !found {
		panic(fmt.Sprintf("molecular: molecule %d missing from its row", m.id))
	}
	tl := r.byTile[m.tile.id]
	for i, x := range tl {
		if x == m {
			r.byTile[m.tile.id] = append(tl[:i], tl[i+1:]...)
			break
		}
	}
	r.unindexMolecule(m)
	wb := m.flush()
	m.owned = false
	m.row = -1
	r.count--
	r.compactRows()
	return wb
}

// compactRows removes empty trailing rows so rowFor never hashes into an
// empty row. Interior empty rows are removed too; the paper only requires
// that "every row of the matrix must contain at least one molecule".
// Re-hashing after structural change is safe because lookup probes every
// region molecule hierarchically regardless of row.
func (r *Region) compactRows() {
	out := r.rows[:0]
	outMiss := r.rowMiss[:0]
	for i, row := range r.rows {
		if len(row) == 0 {
			continue
		}
		out = append(out, row)
		outMiss = append(outMiss, r.rowMiss[i])
	}
	r.rows = out
	r.rowMiss = outMiss
	for i, row := range r.rows {
		for _, m := range row {
			m.row = i
		}
	}
}

// growthRow chooses the row a newly allocated molecule should join,
// implementing the paper's "add along the rows with the highest miss
// count" (Randy / LRU-Direct) and "single logical row" (Random)
// placement. A Randy region keeps the rows growSpread opened and grows
// by widening them; only a region left rowless by retirements gets a
// fresh row 0.
func (r *Region) growthRow() int {
	if r.policy == RandomReplacement {
		return 0
	}
	// Highest misses-per-molecule row wins.
	best, bestScore := 0, -1.0
	for i, row := range r.rows {
		score := float64(r.rowMiss[i]) / float64(len(row))
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// withdrawCandidate picks the molecule to withdraw: the one that "holds
// the least number of addresses" (fewest valid lines), with the paper's
// per-epoch replacement counter as the tie-break. (The paper approximates
// content with the replacement counter alone; counting valid lines
// implements its stated rationale exactly and avoids withdrawing a
// stable, fully hot molecule just because nothing evicts from it — the
// "cold miss compensation" refinement the paper points at.) Rows are
// never thinned
// below two molecules while wider rows exist — a one-molecule row turns
// its whole address slice direct-mapped and thrashes. Returns nil for an
// empty or single-molecule region (a partition never shrinks to zero).
func (r *Region) withdrawCandidate() *Molecule {
	if r.count <= 1 {
		return nil
	}
	pick := func(minWidth int) *Molecule {
		var best *Molecule
		bestLines := 0
		for _, row := range r.rows {
			if len(row) < minWidth {
				continue
			}
			for _, m := range row {
				lines := m.resident
				if best == nil || lines < bestLines ||
					(lines == bestLines && m.missCount < best.missCount) {
					best, bestLines = m, lines
				}
			}
		}
		return best
	}
	if m := pick(3); m != nil {
		return m
	}
	return pick(0)
}
