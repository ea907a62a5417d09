// Package molecular implements the paper's contribution: a cache built as
// an aggregation of small direct-mapped caching units (molecules), grouped
// physically into tiles and tile clusters, and logically into per-
// application cache regions with an ASID-gated decode path, hierarchical
// (tile-then-Ulmo) lookup, Random/Randy replacement over a 2-D replacement
// view with per-row associativity, variable line size, and support for
// dynamic resizing (driven by internal/resize).
package molecular

import "molcache/internal/trace"

// molLine is one line's metadata, 8 bytes: block<<2 | dirty<<1 | valid,
// where block is the line's full block number (addr / lineSize). A
// block has at most 62 bits because Config.Validate requires lines of
// at least minLineSize bytes, so the word holds every block exactly. An
// invalid line is zero. LRU-Direct's timestamp is not in the word: it
// sits in the cache's parallel touch array, which only LRU-Direct
// caches allocate.
type molLine uint64

// The line word's flag bits, and the smallest line size whose block
// numbers fit the word's 62-bit block field.
const (
	lineValid   = 1
	lineDirty   = 2
	minLineSize = 4
)

// lineWord returns the word of a valid line holding block.
func lineWord(block uint64, dirty bool) molLine {
	w := molLine(block<<2 | lineValid)
	if dirty {
		w |= lineDirty
	}
	return w
}

// valid reports whether the line holds a block.
func (ln molLine) valid() bool { return ln&lineValid != 0 }

// dirty reports whether the line holds a modified block.
func (ln molLine) dirty() bool { return ln&lineDirty != 0 }

// block returns the block number a valid line holds.
func (ln molLine) block() uint64 { return uint64(ln >> 2) }

// holds reports whether the line is valid and holds block b.
func (ln molLine) holds(b uint64) bool { return ln&^lineDirty == lineWord(b, false) }

// Molecule is a small direct-mapped caching unit — the building block the
// whole architecture aggregates. Its decode path is gated by an ASID
// comparison.
type Molecule struct {
	// id is the global molecule number (stable across reassignment).
	id int
	// tile is the physical tile holding this molecule.
	tile *Tile
	// lines is the molecule's run of the cache's line slab: slot s is
	// the slab's line id<<slotBits | s.
	lines []molLine
	// touch is the molecule's run of the cache's LRU-Direct timestamps
	// (the logical clock at each line's last fill or hit; only a valid
	// line's is ever read); nil under the other policies, which never
	// read it.
	touch []uint64
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
	for _, ln := range m.lines {
		if ln.valid() {
			out = append(out, ln.block())
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

// fill installs the lineFactor-aligned group of lines containing block.
// It returns the number of valid lines evicted and how many of those were
// dirty. Only the accessed line is marked dirty on a write miss
// (write-allocate); its group companions arrive clean.
func (m *Molecule) fill(block uint64, lineFactor int, write bool, clock uint64) (evicted, writebacks int) {
	group := block &^ uint64(lineFactor-1)
	for i := 0; i < lineFactor; i++ {
		b := group + uint64(i)
		s := m.index(b)
		if ln := m.lines[s]; ln.valid() {
			evicted++
			if ln.dirty() {
				writebacks++
			}
		}
		m.lines[s] = lineWord(b, write && b == block)
		if m.touch != nil {
			m.touch[s] = clock
		}
	}
	m.resident += lineFactor - evicted
	m.missCount++
	return evicted, writebacks
}

// flush invalidates every line, returning the number of dirty lines a
// real cache would write back. Used when a molecule is withdrawn from a
// region or reassigned.
func (m *Molecule) flush() (writebacks int) {
	for _, ln := range m.lines {
		if ln.dirty() {
			writebacks++
		}
	}
	clear(m.lines)
	m.resident = 0
	return writebacks
}

// invalidate drops one line if present (a fill's companion
// back-invalidation).
func (m *Molecule) invalidate(block uint64) (present, dirty bool) {
	s := m.index(block)
	if ln := m.lines[s]; ln.holds(block) {
		m.lines[s] = 0
		m.resident--
		return true, ln.dirty()
	}
	return false, false
}

// corrupt drops the line in slot idx (an uncorrectable-ECC transient
// fault). It reports whether a valid line was lost and whether the lost
// copy was dirty — dirty loss is silent data loss, since the writeback
// that would have preserved it never happens.
func (m *Molecule) corrupt(idx int) (wasValid, wasDirty bool) {
	ln := m.lines[idx]
	m.lines[idx] = 0
	if ln.valid() {
		m.resident--
	}
	return ln.valid(), ln.dirty()
}

// contains reports whether block is resident, without updating state.
func (m *Molecule) contains(block uint64) bool {
	return m.lines[m.index(block)].holds(block)
}

// lineTouch returns the LRU-Direct timestamp of the slot block maps to
// and whether the slot currently holds a valid line.
func (m *Molecule) lineTouch(block uint64) (uint64, bool) {
	s := m.index(block)
	return m.touch[s], m.lines[s].valid()
}

// validLines counts resident lines by scanning them: the audit
// CheckInvariants holds the resident count to.
func (m *Molecule) validLines() int {
	n := 0
	for _, ln := range m.lines {
		if ln.valid() {
			n++
		}
	}
	return n
}

// kindIsWrite converts a trace kind for the probe/fill helpers.
func kindIsWrite(k trace.Kind) bool { return k == trace.Write }
