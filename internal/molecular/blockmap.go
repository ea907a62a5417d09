package molecular

import "math/bits"

// blockMap is the fast-path index's hash table: block number → the
// line of the cache's slab that holds it, open-addressed with linear
// probing over a power-of-two slot array and Fibonacci (multiplicative)
// hashing. The Go runtime map it replaced was the single largest cost
// of a steady-state hit — the generic hashing and bucket machinery cost
// more than the rest of the lookup combined. This table does one
// multiply and, at the load factors it maintains, usually one probe;
// lookups never allocate, and growth happens only on insert, which is
// the miss path.
//
// A slot is one uint32 holding a fingerprint of the block and the
// molecule that holds it, the way hardware way memoization keeps a few
// bits saying where a line lives and confirms them against the full
// tag the line already holds. From the top bit down:
//
//	hash (32 - slotBits - idBits) | line slot (slotBits) | molecule ID + 1 (idBits)
//
// The hash field is the top bits of the block's Fibonacci hash and the
// line slot is the block's direct-mapped slot (its low slotBits bits);
// together they are the block's key, and the home slot is the key's top
// bits. Zero marks an empty slot (the ID field of a live one is at
// least 1). A lookup confirms a key match against the line the entry
// names, molecule ID's line at the block's slot in the slab, whose word
// holds the full block, so every 64-bit block stays exact with no
// overflow table. Because the key carries the line slot, two entries
// that name one molecule name two different lines of it: an entry names
// exactly one line, and two resident lines never share an entry value.
//
// A removal names its line (block and molecule), so it finds its entry
// by value without reading the slab, and deletes by backward shift: the
// later entries of the probe run move back into the hole where their
// home slot allows, so every remaining key stays reachable from its
// home and the table holds no tombstones. Homes come from the key
// alone, so the shift and the table's growth never read a line either.
//
// The table doubles when an insert would take its live entries past 3/4
// of capacity and never shrinks. Its size is therefore bounded by the
// largest population the region ever held, which is at most its home
// cluster's molecules × lines per molecule (a region draws molecules
// from its home cluster only). While a table has at most
// 2^(32-idBits) slots its homes are spread by the hash and slot fields;
// a larger one (only in caches of tens of thousands of molecules in one
// cluster) spaces its homes 2^(log2(slots)-32+idBits) apart, which
// lengthens probe runs but changes no answer.

// blockMapMinSize is the smallest (and initial) table capacity.
const blockMapMinSize = 64

// blockHashMul is 2^64 / φ, the usual Fibonacci-hashing multiplier; the
// high bits of the product avalanche well even for the dense small
// integers block numbers are.
const blockHashMul = 0x9e3779b97f4a7c15

type blockMap struct {
	slots []uint32
	// hshift is 32 - log2(len(slots)): a key's top bits are its home.
	hshift uint
	live   int

	// lines is the cache's line slab, which confirms a key match.
	lines []molLine
	// slotBits is log2 of a molecule's line count and slotMask its mask;
	// idBits is the width of the molecule-ID field, idMask its mask, and
	// hashMask the hash field's.
	slotBits uint
	slotMask uint64
	idBits   uint
	idMask   uint32
	hashMask uint32
}

// newBlockMap returns an empty table over the cache's line slab, whose
// molecules hold 1<<slotBits lines each and are numbered below
// molecules. Config.Validate guarantees that the ID and slot fields fit
// the 32-bit slot.
func newBlockMap(lines []molLine, slotBits uint, molecules int) blockMap {
	idBits := uint(bits.Len(uint(molecules)))
	t := blockMap{
		lines:    lines,
		slotBits: slotBits,
		slotMask: 1<<slotBits - 1,
		idBits:   idBits,
		idMask:   1<<idBits - 1,
		hashMask: ^uint32(0) << (slotBits + idBits),
	}
	t.grow()
	return t
}

// key returns block b's key: its hash and line-slot fields, with a zero
// ID field.
func (t *blockMap) key(b uint64) uint32 {
	return uint32(b*blockHashMul>>32)&t.hashMask | uint32(b&t.slotMask)<<t.idBits
}

// home returns the home slot of a key or of a slot value.
func (t *blockMap) home(s uint32) int {
	return int((s &^ t.idMask) >> t.hshift)
}

// get returns the slab position (molecule ID << slotBits | slot) of the
// line holding block b, or -1 when no molecule of the region holds it.
func (t *blockMap) get(b uint64) int {
	k := t.key(b)
	slot := int(b & t.slotMask)
	mask := len(t.slots) - 1
	for i := int(k >> t.hshift); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return -1
		}
		if s&^t.idMask == k {
			pos := int(s&t.idMask-1)<<t.slotBits | slot
			if t.lines[pos].holds(b) {
				return pos
			}
		}
	}
}

// add records molecule id as the holder of block b, which the table
// must not hold: every caller adds a line just installed or just
// attached.
func (t *blockMap) add(b uint64, id int) {
	if (t.live+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	k := t.key(b)
	mask := len(t.slots) - 1
	i := int(k >> t.hshift)
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = k | uint32(id+1)
	t.live++
}

// remove drops the entry for b held by molecule id, if (and only if)
// the table has one, reporting whether it did — the conditional the
// index maintenance contract needs (a companion's eviction must not
// take a different holder's entry). The caller names a line: molecule
// id holds b in b's slot, or held it until the caller dropped it, or
// holds nothing there that shares b's key; so the entry the value
// matches is that line's, and the slab is not read.
func (t *blockMap) remove(b uint64, id int) bool {
	v := t.key(b) | uint32(id+1)
	mask := len(t.slots) - 1
	i := t.home(v)
	for ; t.slots[i] != v; i = (i + 1) & mask {
		if t.slots[i] == 0 {
			return false
		}
	}
	// Backward shift: each later entry of the run whose home does not
	// lie between the hole and itself moves back into the hole.
	for j := (i + 1) & mask; t.slots[j] != 0; j = (j + 1) & mask {
		if (j-t.home(t.slots[j]))&mask < (j-i)&mask {
			continue // its home is in (i, j]: it must stay after i
		}
		t.slots[i] = t.slots[j]
		i = j
	}
	t.slots[i] = 0
	t.live--
	return true
}

// probe walks b's probe run without confirming against the slab: own
// reports an entry for b naming molecule id, and other is the molecule
// another entry with b's key names (-1 when none does). The audit uses
// it to tell a missing entry from one naming the wrong holder.
func (t *blockMap) probe(b uint64, id int) (own bool, other int) {
	k := t.key(b)
	mask := len(t.slots) - 1
	other = -1
	for i := int(k >> t.hshift); t.slots[i] != 0; i = (i + 1) & mask {
		s := t.slots[i]
		switch {
		case s&^t.idMask != k:
		case s == k|uint32(id+1):
			return true, -1
		case other < 0:
			other = int(s&t.idMask) - 1
		}
	}
	return false, other
}

// size returns the number of live entries.
func (t *blockMap) size() int { return t.live }

// grow doubles the table (or allocates the first one) and re-homes
// every live entry.
func (t *blockMap) grow() {
	old := t.slots
	size := max(2*len(old), blockMapMinSize)
	t.slots = make([]uint32, size)
	t.hshift = uint(32 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, s := range old {
		if s == 0 {
			continue
		}
		i := t.home(s)
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}
