package molecular

import "fmt"

// This file is the cache's structural audit. The cache is correct only
// while six rules hold, and CheckInvariants checks them on the live
// structures — the tiles' free lists, the regions in ASID order, then
// the molecules in ID order — without copying a line or an index:
//
//  1. molecule-accounting: every molecule is in exactly one state —
//     owned by one region, on its own tile's free list once, or
//     retired — its resident count agrees with its lines, a free
//     molecule holds no lines, and the three populations sum to the
//     cache's total.
//  2. duplicate-line: no block is resident in two molecules of one
//     region, its lookup domain, or one copy would go silently stale.
//     The same block MAY be resident in two regions: that is legal
//     cross-ASID residency.
//  3. asid-isolation: a region's molecules carry its ASID.
//  4. region-accounting: rows are non-empty, each member's owned bit is
//     set and its row field names its row, the count matches the rows,
//     and the per-tile listing the hierarchical lookup walks holds
//     exactly the region's molecules, each under its own tile.
//  5. retired-state: a retired molecule holds no lines.
//  6. index-consistency: a region's block index names exactly the
//     resident lines of its molecules, each to its holder.

// Violation is one broken structural rule.
type Violation struct {
	// Rule names the rule: "molecule-accounting", "duplicate-line",
	// "asid-isolation", "region-accounting", "retired-state" or
	// "index-consistency".
	Rule string
	// Detail says what exactly is wrong, with the IDs involved.
	Detail string
}

func (v Violation) String() string { return v.Rule + ": " + v.Detail }

// CheckInvariants audits the cache's structural rules and returns every
// violation (nil when the cache is healthy) in a fixed order: free
// lists tile by tile, regions in ASID order, molecules in ID order,
// then the population sum. Its allocations do not grow with the
// resident lines. Checkpoint restore runs it as its last step, and the
// resize controller after every pass when Config.DebugCheck is set.
func (c *Cache) CheckInvariants() []Violation {
	a := audit{
		marks:  make([]molMark, len(c.molsByID)),
		onTile: make([]int, len(c.clusters)*c.cfg.TilesPerCluster),
	}
	for _, cl := range c.clusters {
		for _, t := range cl.tiles {
			a.freeList(t)
		}
	}
	for i, r := range c.regionList {
		a.region(r, int32(i+1))
	}
	for _, cl := range c.clusters {
		for _, t := range cl.tiles {
			for _, m := range t.molecules {
				a.molecule(m)
			}
		}
	}
	if total := c.TotalMolecules(); a.owned+a.free+a.retired != total {
		a.add("molecule-accounting", "owned %d + free %d + retired %d != total %d",
			a.owned, a.free, a.retired, total)
	}
	return a.vs
}

// molMark is what the free lists and the regions' rows say about one
// molecule, gathered before the molecule itself is checked.
type molMark struct {
	// free counts the free-list entries naming the molecule.
	free int32
	// owners counts the region rows naming it; owner is the first.
	owners int32
	owner  uint16
	// inRows and listed stamp the region whose rows, and whose per-tile
	// listing, last named the molecule.
	inRows, listed int32
}

// audit is one CheckInvariants pass.
type audit struct {
	marks []molMark // by molecule ID
	// onTile counts the current region's row members per tile.
	onTile []int
	// owned, free and retired count the molecules in each state.
	owned, free, retired int
	vs                   []Violation
}

func (a *audit) add(rule, format string, args ...any) {
	a.vs = append(a.vs, Violation{Rule: rule, Detail: fmt.Sprintf(format, args...)})
}

// freeList records tile t's free pool: each entry a molecule of t,
// listed once.
func (a *audit) freeList(t *Tile) {
	for _, m := range t.free {
		mk := &a.marks[m.id]
		if m.tile != t {
			a.add("molecule-accounting", "molecule %d on tile %d's free list but sits on tile %d",
				m.id, t.id, m.tile.id)
		}
		if mk.free > 0 {
			a.add("molecule-accounting", "molecule %d listed twice on free lists", m.id)
		}
		mk.free++
	}
}

// region checks r's replacement view and per-tile listing (rules 3 and
// 4), then its lines (rules 2 and 6). stamp is unique to r in this pass.
func (a *audit) region(r *Region, stamp int32) {
	clear(a.onTile)
	n := 0
	for i, row := range r.rows {
		if len(row) == 0 {
			a.add("region-accounting", "region %d row %d is empty", r.asid, i)
		}
		for _, m := range row {
			n++
			mk := &a.marks[m.id]
			if mk.owners > 0 {
				a.add("molecule-accounting", "molecule %d owned by regions %d and %d", m.id, mk.owner, r.asid)
			} else {
				mk.owner = r.asid
			}
			mk.owners++
			mk.inRows = stamp
			a.onTile[m.tile.id]++
			if !m.owned {
				a.add("region-accounting", "molecule %d in region %d but not owned", m.id, r.asid)
			}
			if m.asid != r.asid {
				a.add("asid-isolation", "molecule %d carries ASID %d inside region %d", m.id, m.asid, r.asid)
			}
			if m.row != i {
				a.add("region-accounting", "molecule %d row field %d but sits in row %d of region %d",
					m.id, m.row, i, r.asid)
			}
		}
	}
	if n != r.count {
		a.add("region-accounting", "region %d count %d != %d molecules in rows", r.asid, r.count, n)
	}
	for tid, ms := range r.byTile {
		for _, m := range ms {
			mk := &a.marks[m.id]
			if m.tile.id != tid {
				a.add("region-accounting", "region %d lists molecule %d under tile %d but it sits on tile %d",
					r.asid, m.id, tid, m.tile.id)
			}
			if mk.inRows != stamp {
				a.add("region-accounting", "region %d lists molecule %d under tile %d but not in its rows",
					r.asid, m.id, tid)
			}
			if mk.listed == stamp {
				a.add("region-accounting", "region %d lists molecule %d twice under its tiles", r.asid, m.id)
			}
			mk.listed = stamp
		}
		if len(ms) != a.onTile[tid] {
			a.add("region-accounting", "region %d tile %d listing holds %d molecules, rows hold %d",
				r.asid, tid, len(ms), a.onTile[tid])
		}
	}
	a.lines(r)
}

// lines checks rules 2 and 6 for r: each resident line of its molecules
// is indexed to its holder and held by no other molecule of r, and the
// index holds nothing else. The check probes the index raw, by key,
// without the confirming read of the slab a lookup makes, so an entry
// naming the wrong holder is reported as such. An entry names one line
// (molecule and slot), so finding each resident line's own entry and
// counting no more entries than lines proves the index exact. A healthy
// line costs one probe; only a line without its entry pays a scan of
// the region.
func (a *audit) lines(r *Region) {
	resident := 0
	for _, row := range r.rows {
		for _, m := range row {
			for _, ln := range m.lines {
				if !ln.valid() {
					continue
				}
				b := ln.block()
				own, other := r.index.probe(b, m.id)
				if own {
					resident++
					continue
				}
				if x := otherHolder(r, m, b); x != nil {
					a.add("duplicate-line", "block %#x resident in molecules %d and %d of region %d",
						b, x.id, m.id, r.asid)
					continue // the block is counted with its other copy
				}
				if other < 0 {
					a.add("index-consistency", "region %d: resident block %#x of molecule %d missing from the index",
						r.asid, b, m.id)
				} else {
					a.add("index-consistency", "region %d: block %#x resident in molecule %d but indexed to %d",
						r.asid, b, m.id, other)
				}
				resident++
			}
		}
	}
	if n := r.index.size(); n != resident {
		a.add("index-consistency", "region %d: index holds %d entries, %d lines resident", r.asid, n, resident)
	}
}

// otherHolder returns a molecule of r other than m that holds block b,
// or nil.
func otherHolder(r *Region, m *Molecule, b uint64) *Molecule {
	for _, row := range r.rows {
		for _, x := range row {
			if x != m && x.contains(b) {
				return x
			}
		}
	}
	return nil
}

// molecule checks m's state against what the free lists and rows said
// of it (rules 1 and 5) and counts it in its population.
func (a *audit) molecule(m *Molecule) {
	mk := &a.marks[m.id]
	free := mk.free > 0
	states := 0
	if m.owned {
		states++
		a.owned++
	}
	if free {
		states++
		a.free++
	}
	if m.failed {
		states++
		a.retired++
	}
	if states != 1 {
		a.add("molecule-accounting", "molecule %d in %d states (owned=%v free=%v retired=%v), want exactly one",
			m.id, states, m.owned, free, m.failed)
	}
	n := m.validLines()
	if m.resident != n {
		a.add("molecule-accounting", "molecule %d counts %d resident lines, holds %d", m.id, m.resident, n)
	}
	if m.failed && n != 0 {
		a.add("retired-state", "retired molecule %d holds %d lines", m.id, n)
	}
	if free && n != 0 {
		a.add("molecule-accounting", "free molecule %d holds %d lines", m.id, n)
	}
	if m.owned && mk.owners == 0 {
		a.add("molecule-accounting", "molecule %d owned (ASID %d) but in no region's rows", m.id, m.asid)
	}
}
