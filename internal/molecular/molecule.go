// Package molecular implements the paper's contribution: a cache built as
// an aggregation of small direct-mapped caching units (molecules), grouped
// physically into tiles and tile clusters, and logically into per-
// application cache regions with an ASID-gated decode path, hierarchical
// (tile-then-Ulmo) lookup, Random/Randy replacement over a 2-D replacement
// view with per-row associativity, variable line size, and support for
// dynamic resizing (driven by internal/resize).
package molecular

import "molcache/internal/trace"

// molLine is one 64-byte line's metadata inside a molecule: 16 bytes,
// so a molecule's 128 lines fill 32 host cache lines instead of 48.
// word packs the replacement timestamp with two flag bits,
// touch<<2 | dirty<<1 | valid; an invalid line is the zero value.
type molLine struct {
	tag  uint64 // full block number (addr / lineSize)
	word uint64
}

// The line word's flag bits and the shift of its touch field. touch is
// the cache's logical clock at the line's last fill or hit (the
// LRU-Direct policy's timestamp); it advances once per access, so its
// 62 bits never wrap in a simulated run, and RestoreCache rejects a
// checkpoint whose touch does not fit.
const (
	lineValid  = 1
	lineDirty  = 2
	touchShift = 2
	// maxTouch is the largest touch the line word holds.
	maxTouch = 1<<(64-touchShift) - 1
)

// valid reports whether the line holds a block.
func (ln *molLine) valid() bool { return ln.word&lineValid != 0 }

// dirty reports whether the line holds a modified block.
func (ln *molLine) dirty() bool { return ln.word&lineDirty != 0 }

// touch returns the line's replacement timestamp.
func (ln *molLine) touch() uint64 { return ln.word >> touchShift }

// lineWord packs a valid line's timestamp and dirty bit.
func lineWord(touch uint64, dirty bool) uint64 {
	w := touch<<touchShift | lineValid
	if dirty {
		w |= lineDirty
	}
	return w
}

// Molecule is a small direct-mapped caching unit — the building block the
// whole architecture aggregates. Its decode path is gated by an ASID
// comparison.
type Molecule struct {
	// id is the global molecule number (stable across reassignment).
	id int
	// tile is the physical tile holding this molecule.
	tile *Tile
	// lines are the direct-mapped entries.
	lines []molLine
	// resident counts the valid lines, kept current by every path that
	// validates or drops one (fill, invalidate, corrupt, flush and the
	// checkpoint restore), so the resize controller's withdraw choice
	// reads it instead of scanning lines. validLines is its audit.
	resident int

	// asid is the configured Application Space Identifier; only
	// requests from this application may proceed past decode.
	asid uint16
	// owned reports whether the molecule currently belongs to a region.
	owned bool
	// failed marks a hard-failed (retired) molecule: it belongs to no
	// region, sits on no free list, and is never allocated again.
	failed bool
	// row is the molecule's row in its region's replacement view
	// (meaningful only while owned).
	row int

	// missCount counts replacements since the last resize epoch — the
	// counter Algorithm 1 reads to decide where to add and what to
	// withdraw.
	missCount uint64
}

// ID returns the global molecule number.
func (m *Molecule) ID() int { return m.id }

// Tile returns the physical tile holding the molecule.
func (m *Molecule) Tile() *Tile { return m.tile }

// Owned reports whether the molecule currently belongs to a region.
func (m *Molecule) Owned() bool { return m.owned }

// Failed reports whether the molecule has been retired by a hard fault.
func (m *Molecule) Failed() bool { return m.failed }

// ValidBlocks returns the block numbers of every resident line (the
// retirement path's view of the contents).
func (m *Molecule) ValidBlocks() []uint64 {
	var out []uint64
	for i := range m.lines {
		if m.lines[i].valid() {
			out = append(out, m.lines[i].tag)
		}
	}
	return out
}

// MissCount returns replacements since the last epoch reset.
func (m *Molecule) MissCount() uint64 { return m.missCount }

// index maps a block number to the molecule's direct-mapped slot: its
// low bits, since a molecule's line count is a power of two (molecule
// and line sizes both are).
func (m *Molecule) index(block uint64) int {
	return int(block & uint64(len(m.lines)-1))
}

// recordHit applies the bookkeeping of a probe hit on block: the line's
// LRU timestamp advances and a write marks it dirty. The caller has
// already established residency — through the region's block index on
// the fast path, or a linear scan on the reference path — so both paths
// leave identical molecule state.
func (m *Molecule) recordHit(block uint64, write bool, clock uint64) {
	ln := &m.lines[m.index(block)]
	ln.word = clock<<touchShift | ln.word&lineDirty | lineValid
	if write {
		ln.word |= lineDirty
	}
}

// fill installs the lineFactor-aligned group of lines containing block.
// It returns the number of valid lines evicted and how many of those were
// dirty. Only the accessed line is marked dirty on a write miss
// (write-allocate); its group companions arrive clean.
func (m *Molecule) fill(block uint64, lineFactor int, write bool, clock uint64) (evicted, writebacks int) {
	group := block &^ uint64(lineFactor-1)
	for i := 0; i < lineFactor; i++ {
		b := group + uint64(i)
		ln := &m.lines[m.index(b)]
		if ln.valid() {
			evicted++
			if ln.dirty() {
				writebacks++
			}
		}
		*ln = molLine{tag: b, word: lineWord(clock, write && b == block)}
	}
	m.resident += lineFactor - evicted
	m.missCount++
	return evicted, writebacks
}

// flush invalidates every line, returning the number of dirty lines a
// real cache would write back. Used when a molecule is withdrawn from a
// region or reassigned.
func (m *Molecule) flush() (writebacks int) {
	for i := range m.lines {
		if m.lines[i].dirty() {
			writebacks++
		}
		m.lines[i] = molLine{}
	}
	m.resident = 0
	return writebacks
}

// invalidate drops one line if present (a fill's companion
// back-invalidation).
func (m *Molecule) invalidate(block uint64) (present, dirty bool) {
	ln := &m.lines[m.index(block)]
	if ln.valid() && ln.tag == block {
		d := ln.dirty()
		*ln = molLine{}
		m.resident--
		return true, d
	}
	return false, false
}

// corrupt drops the line in slot idx (an uncorrectable-ECC transient
// fault). It reports whether a valid line was lost and whether the lost
// copy was dirty — dirty loss is silent data loss, since the writeback
// that would have preserved it never happens.
func (m *Molecule) corrupt(idx int) (wasValid, wasDirty bool) {
	ln := &m.lines[idx]
	wasValid, wasDirty = ln.valid(), ln.dirty()
	*ln = molLine{}
	if wasValid {
		m.resident--
	}
	return wasValid, wasDirty
}

// contains reports whether block is resident, without updating state.
func (m *Molecule) contains(block uint64) bool {
	ln := &m.lines[m.index(block)]
	return ln.valid() && ln.tag == block
}

// lineTouch returns the LRU timestamp of the slot block maps to and
// whether the slot currently holds a valid line.
func (m *Molecule) lineTouch(block uint64) (uint64, bool) {
	ln := &m.lines[m.index(block)]
	return ln.touch(), ln.valid()
}

// validLines counts resident lines by scanning them: the audit
// CheckInvariants holds the resident count to.
func (m *Molecule) validLines() int {
	n := 0
	for i := range m.lines {
		if m.lines[i].valid() {
			n++
		}
	}
	return n
}

// kindIsWrite converts a trace kind for the probe/fill helpers.
func kindIsWrite(k trace.Kind) bool { return k == trace.Write }
