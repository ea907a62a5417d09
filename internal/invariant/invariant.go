// Package invariant audits simulator state for structural corruption.
// It is the repository's safety net for the fault-injection work: after
// molecules are retired, lines corrupted and lookups abandoned
// mid-flight, the cache must still satisfy the architecture's structural
// rules. The checker is split in two pure layers so both are testable:
//
//   - Snapshot is a plain-data view of the state under audit. The
//     Capture adapter builds one from a live molecular.Cache; tests
//     construct known-bad snapshots by hand.
//   - Check walks a Snapshot and returns every Violation it finds. It
//     never mutates anything and holds no references into the live
//     simulator.
//
// The rules checked:
//
//  1. Every molecule is in exactly one of three states — owned by a
//     region, on its tile's free list, or retired — and the three
//     populations sum to the cache's total.
//  2. No line is resident in two molecules of the same lookup domain
//     (a region's own molecules plus the shared region's molecules in
//     its home cluster). Duplicates would go silently stale. The same
//     physical block MAY be resident in two different regions — that is
//     legitimate cross-ASID residency, not a violation.
//  3. ASID isolation: a non-shared molecule only ever appears under the
//     region whose ASID it carries.
//  4. Region accounting: the replacement view's rows are non-empty,
//     row indices agree, the per-tile index sums to the region count.
//  5. Retired molecules hold no lines, are not owned, and sit on no
//     free list.
//  6. Index consistency: a region's fast-path block index names exactly
//     the resident lines of the region's molecules — every resident
//     line indexed to its holder, nothing else indexed. Skipped for
//     snapshots captured without an index (RegionState.Index nil).
//
// A Checker wraps Capture + Check with an every-N-accesses cadence for
// in-loop auditing (cmd/molsim's -check-invariants flag).
package invariant

import (
	"fmt"
	"sort"
)

// MoleculeState is one molecule's audited view.
type MoleculeState struct {
	// ID is the global molecule number; Tile its physical tile.
	ID, Tile int
	// ASID is the owning application (meaningful while Owned).
	ASID uint16
	// Owned, Shared, Failed mirror the molecule's assignment bits.
	Owned, Shared, Failed bool
	// Free reports free-list membership.
	Free bool
	// Row is the replacement-view row (-1 when unowned).
	Row int
	// Blocks are the resident lines' block numbers.
	Blocks []uint64
}

// RegionState is one region's audited view.
type RegionState struct {
	// ASID identifies the partition.
	ASID uint16
	// Count is the region's molecule count.
	Count int
	// HomeTile is the region's home tile ID.
	HomeTile int
	// Rows is the replacement view as molecule IDs, row-major.
	Rows [][]int
	// TileCounts is the per-tile molecule count index.
	TileCounts map[int]int
	// Index is the fast-path block index as block → molecule ID (nil
	// skips the index-consistency rule).
	Index map[uint64]int
}

// SharedASID mirrors molecular.SharedASID so this file — the pure
// checking layer — stays free of simulator imports; only the Capture
// adapters (capture.go) link against the live packages.
const SharedASID uint16 = 0xFFFF

// Snapshot is the full audited view. Zero-valued sections are simply
// not checked.
type Snapshot struct {
	// TotalMolecules is the cache's molecule population (0 skips the
	// accounting sum).
	TotalMolecules int
	// TilesPerCluster maps tiles to clusters for the lookup-domain rule
	// (0 treats all tiles as one cluster).
	TilesPerCluster int
	Molecules       []MoleculeState
	Regions         []RegionState
}

// Violation is one broken invariant.
type Violation struct {
	// Rule names the invariant ("molecule-accounting", "duplicate-line",
	// "asid-isolation", "region-accounting", "retired-state",
	// "index-consistency").
	Rule string
	// Detail says what exactly is wrong, with the IDs involved.
	Detail string
}

func (v Violation) String() string { return v.Rule + ": " + v.Detail }

// violations collects with printf convenience.
type violations []Violation

func (vs *violations) add(rule, format string, args ...any) {
	*vs = append(*vs, Violation{Rule: rule, Detail: fmt.Sprintf(format, args...)})
}

// Check audits a snapshot and returns every violation found (nil when
// clean). It is pure: the snapshot is not modified.
func Check(s Snapshot) []Violation {
	var vs violations
	checkMolecules(s, &vs)
	checkRegions(s, &vs)
	checkDuplicateLines(s, &vs)
	checkIndexes(s, &vs)
	return vs
}

// checkMolecules enforces rules 1 and 5.
func checkMolecules(s Snapshot, vs *violations) {
	seen := make(map[int]bool, len(s.Molecules))
	owned, free, failed := 0, 0, 0
	for _, m := range s.Molecules {
		if seen[m.ID] {
			vs.add("molecule-accounting", "molecule %d appears twice in the snapshot", m.ID)
			continue
		}
		seen[m.ID] = true
		states := 0
		if m.Owned {
			states++
			owned++
		}
		if m.Free {
			states++
			free++
		}
		if m.Failed {
			states++
			failed++
		}
		if states != 1 {
			vs.add("molecule-accounting",
				"molecule %d in %d states (owned=%v free=%v failed=%v), want exactly one",
				m.ID, states, m.Owned, m.Free, m.Failed)
		}
		if m.Failed && len(m.Blocks) != 0 {
			vs.add("retired-state", "retired molecule %d holds %d lines", m.ID, len(m.Blocks))
		}
		if m.Free && len(m.Blocks) != 0 {
			vs.add("molecule-accounting", "free molecule %d holds %d lines", m.ID, len(m.Blocks))
		}
	}
	if s.TotalMolecules > 0 && owned+free+failed != s.TotalMolecules {
		vs.add("molecule-accounting", "owned %d + free %d + retired %d != total %d",
			owned, free, failed, s.TotalMolecules)
	}
}

// checkRegions enforces rules 3 and 4.
func checkRegions(s Snapshot, vs *violations) {
	mols := make(map[int]*MoleculeState, len(s.Molecules))
	for i := range s.Molecules {
		mols[s.Molecules[i].ID] = &s.Molecules[i]
	}
	owner := make(map[int]uint16)
	for _, r := range s.Regions {
		n := 0
		tileSums := make(map[int]int)
		for rowIdx, row := range r.Rows {
			if len(row) == 0 {
				vs.add("region-accounting", "region %d row %d is empty", r.ASID, rowIdx)
			}
			for _, id := range row {
				n++
				m := mols[id]
				if m == nil {
					vs.add("region-accounting", "region %d references unknown molecule %d", r.ASID, id)
					continue
				}
				tileSums[m.Tile]++
				if prev, dup := owner[id]; dup {
					vs.add("molecule-accounting", "molecule %d owned by regions %d and %d", id, prev, r.ASID)
				}
				owner[id] = r.ASID
				if !m.Owned {
					vs.add("region-accounting", "molecule %d in region %d but not owned", id, r.ASID)
				}
				if m.ASID != r.ASID {
					vs.add("asid-isolation", "molecule %d carries ASID %d inside region %d",
						id, m.ASID, r.ASID)
				}
				if r.ASID == SharedASID != m.Shared {
					vs.add("asid-isolation", "molecule %d shared bit %v under region %d",
						id, m.Shared, r.ASID)
				}
				if m.Row != rowIdx {
					vs.add("region-accounting", "molecule %d row field %d but sits in row %d of region %d",
						id, m.Row, rowIdx, r.ASID)
				}
			}
		}
		if n != r.Count {
			vs.add("region-accounting", "region %d count %d != %d molecules in rows", r.ASID, r.Count, n)
		}
		if r.TileCounts != nil {
			sum := 0
			for tile, cnt := range r.TileCounts {
				sum += cnt
				if tileSums[tile] != cnt {
					vs.add("region-accounting", "region %d tile %d index says %d molecules, rows hold %d",
						r.ASID, tile, cnt, tileSums[tile])
				}
			}
			if sum != r.Count {
				vs.add("region-accounting", "region %d tile index sums to %d, count is %d",
					r.ASID, sum, r.Count)
			}
		}
	}
	// An owned molecule must belong to some region.
	for _, m := range s.Molecules {
		if m.Owned {
			if _, ok := owner[m.ID]; !ok && len(s.Regions) > 0 {
				vs.add("molecule-accounting", "molecule %d owned (ASID %d) but in no region's rows",
					m.ID, m.ASID)
			}
		}
	}
}

// checkDuplicateLines enforces rule 2 per lookup domain.
func checkDuplicateLines(s Snapshot, vs *violations) {
	mols := make(map[int]*MoleculeState, len(s.Molecules))
	for i := range s.Molecules {
		mols[s.Molecules[i].ID] = &s.Molecules[i]
	}
	cluster := func(tile int) int {
		if s.TilesPerCluster <= 0 {
			return 0
		}
		return tile / s.TilesPerCluster
	}
	var sharedMols []*MoleculeState
	for i := range s.Molecules {
		if s.Molecules[i].Shared && !s.Molecules[i].Failed {
			sharedMols = append(sharedMols, &s.Molecules[i])
		}
	}
	for _, r := range s.Regions {
		// The region's lookup domain: its own molecules, plus the shared
		// region's molecules in its home cluster (those answer every
		// ASID's probes there).
		domain := make(map[uint64]int) // block -> first molecule holding it
		audit := func(m *MoleculeState) {
			for _, b := range m.Blocks {
				if first, dup := domain[b]; dup && first != m.ID {
					vs.add("duplicate-line",
						"block %#x resident in molecules %d and %d of region %d's lookup domain",
						b, first, m.ID, r.ASID)
					continue
				}
				domain[b] = m.ID
			}
		}
		for _, row := range r.Rows {
			for _, id := range row {
				if m := mols[id]; m != nil {
					audit(m)
				}
			}
		}
		if r.ASID != SharedASID {
			for _, m := range sharedMols {
				if cluster(m.Tile) == cluster(r.HomeTile) {
					audit(m)
				}
			}
		}
	}
}

// checkIndexes enforces rule 6: each region's block index mirrors the
// resident lines of its molecules exactly.
func checkIndexes(s Snapshot, vs *violations) {
	mols := make(map[int]*MoleculeState, len(s.Molecules))
	for i := range s.Molecules {
		mols[s.Molecules[i].ID] = &s.Molecules[i]
	}
	for _, r := range s.Regions {
		if r.Index == nil {
			continue
		}
		resident := 0
		for _, row := range r.Rows {
			for _, id := range row {
				m := mols[id]
				if m == nil {
					continue
				}
				for _, b := range m.Blocks {
					resident++
					got, ok := r.Index[b]
					if !ok {
						vs.add("index-consistency",
							"region %d: resident block %#x of molecule %d missing from the index",
							r.ASID, b, id)
					} else if got != id {
						vs.add("index-consistency",
							"region %d: block %#x resident in molecule %d but indexed to %d",
							r.ASID, b, id, got)
					}
				}
			}
		}
		if resident != len(r.Index) {
			vs.add("index-consistency", "region %d: index holds %d entries, %d lines resident",
				r.ASID, len(r.Index), resident)
		}
	}
}

// Source produces snapshots on demand — a live cache behind the
// Capture adapter.
type Source func() Snapshot

// Checker runs Check over a Source every N accesses (Tick) or on demand
// (Run), accumulating totals for reporting.
type Checker struct {
	src   Source
	every uint64
	ticks uint64

	runs       uint64
	violations []Violation
}

// NewChecker builds a checker over src that audits every `every` Ticks
// (0 disables Tick-driven audits; Run still works).
func NewChecker(src Source, every uint64) *Checker {
	return &Checker{src: src, every: every}
}

// Tick advances the access counter and audits when due, returning the
// new violations (nil otherwise, and nil on a clean audit).
func (c *Checker) Tick() []Violation {
	c.ticks++
	if c.every == 0 || c.ticks%c.every != 0 {
		return nil
	}
	return c.Run()
}

// Run audits immediately and returns the violations found (nil when
// clean). Found violations are also accumulated for Report.
func (c *Checker) Run() []Violation {
	c.runs++
	vs := Check(c.src())
	c.violations = append(c.violations, vs...)
	return vs
}

// Runs returns how many audits have executed.
func (c *Checker) Runs() uint64 { return c.runs }

// Violations returns every violation accumulated across audits.
func (c *Checker) Violations() []Violation { return c.violations }

// Summary renders a one-line audit summary, with the distinct broken
// rules when any.
func (c *Checker) Summary() string {
	if len(c.violations) == 0 {
		return fmt.Sprintf("%d audits, 0 violations", c.runs)
	}
	rules := make(map[string]int)
	for _, v := range c.violations {
		rules[v.Rule]++
	}
	names := make([]string, 0, len(rules))
	for r := range rules {
		names = append(names, r)
	}
	sort.Strings(names)
	out := fmt.Sprintf("%d audits, %d violations:", c.runs, len(c.violations))
	for _, n := range names {
		out += fmt.Sprintf(" %s=%d", n, rules[n])
	}
	return out
}
