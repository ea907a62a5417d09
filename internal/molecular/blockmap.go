package molecular

import "math/bits"

// blockMap is the fast-path index's hash table: block number → holding
// molecule, open-addressed with linear probing over a power-of-two
// slot array and Fibonacci (multiplicative) hashing. The Go runtime
// map it replaces was the single largest cost of a steady-state hit —
// the generic hashing and bucket machinery cost more than the rest of
// the lookup combined. This table does one multiply and, at the load
// factors it maintains, usually one probe; lookups never allocate, and
// growth happens only on insert, which is the miss path.
//
// A slot is one uint64, (block+1)<<idBits | moleculeID, where idBits is
// bits.Len of the cache's molecule count and the molecule is read back
// from the cache's molsByID. Block 0 is legal and stores as 1, so a
// zero slot marks an empty one. Half the 16-byte key/pointer pair it
// replaces: on the Table 2 replay the twelve indexes fall from 2.56 MB
// to 1.28 MB, which decides how many lookups miss the host's caches. A
// block too large for the remaining 64-idBits bits (above maxPacked)
// goes to an overflow map instead, the idiom regionTable uses for large
// ASIDs, so every 64-bit address stays exact.
//
// Deletion is by backward shift: the later entries of the probe run
// move back into the hole where their home slot allows, so every
// remaining key stays reachable from its home and the table holds no
// tombstones.
//
// The table doubles when an insert would take its live entries past 3/4
// of capacity and never shrinks. Its size is therefore bounded by the
// largest population the region ever held, which is at most its home
// cluster's molecules × lines per molecule (a region draws molecules
// from its home cluster only).

// blockMapMinSize is the smallest (and initial) table capacity.
const blockMapMinSize = 64

// blockHashMul is 2^64 / φ, the usual Fibonacci-hashing multiplier; the
// high bits of the product avalanche well even for the dense small
// integers block numbers are.
const blockHashMul = 0x9e3779b97f4a7c15

type blockMap struct {
	slots []uint64
	// shift is 64 - log2(len(slots)): the hash's high bits become the
	// starting slot, so no masking is needed on the first probe.
	shift uint
	live  int

	// idBits is the width of a slot's molecule-ID field and idMask its
	// mask; mols resolves an ID to its molecule.
	idBits uint
	idMask uint64
	mols   []*Molecule
	// maxPacked is the largest block a slot holds; larger blocks live
	// in overflow.
	maxPacked uint64
	overflow  map[uint64]*Molecule
}

// newBlockMap returns an empty table whose slots name molecules by
// their index in mols (the cache's molsByID).
func newBlockMap(mols []*Molecule) blockMap {
	idBits := uint(bits.Len(uint(len(mols))))
	t := blockMap{
		idBits:    idBits,
		idMask:    1<<idBits - 1,
		mols:      mols,
		maxPacked: 1<<(64-idBits) - 2,
	}
	t.grow()
	return t
}

// home returns b's home slot.
func (t *blockMap) home(b uint64) uint64 {
	return (b * blockHashMul) >> t.shift
}

// key returns the block a non-empty slot holds.
func (t *blockMap) key(s uint64) uint64 {
	return s>>t.idBits - 1
}

// get returns the molecule holding block b, or nil.
func (t *blockMap) get(b uint64) *Molecule {
	if b > t.maxPacked {
		return t.overflow[b]
	}
	mask := uint64(len(t.slots) - 1)
	for i := t.home(b); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return nil
		}
		if s>>t.idBits == b+1 {
			return t.mols[s&t.idMask]
		}
	}
}

// find returns the slot holding packable block b and true, or, when b
// is absent, the empty slot that ends its probe chain and false.
func (t *blockMap) find(b uint64) (uint64, bool) {
	mask := uint64(len(t.slots) - 1)
	for i := t.home(b); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return i, false
		}
		if s>>t.idBits == b+1 {
			return i, true
		}
	}
}

// set binds block b to molecule m, updating in place if b is present.
func (t *blockMap) set(b uint64, m *Molecule) {
	if b > t.maxPacked {
		if t.overflow == nil {
			t.overflow = make(map[uint64]*Molecule)
		}
		t.overflow[b] = m
		return
	}
	i, ok := t.find(b)
	if !ok {
		if (t.live+1)*4 > len(t.slots)*3 {
			t.grow()
			i, _ = t.find(b)
		}
		t.live++
	}
	t.slots[i] = (b+1)<<t.idBits | uint64(m.id)
}

// remove drops the entry for b if (and only if) it names m, reporting
// whether it did — the conditional the index maintenance contract needs
// (a companion's eviction must not take a different holder's entry).
func (t *blockMap) remove(b uint64, m *Molecule) bool {
	if b > t.maxPacked {
		if got, ok := t.overflow[b]; !ok || got != m {
			return false
		}
		delete(t.overflow, b)
		return true
	}
	i, ok := t.find(b)
	if !ok || t.slots[i]&t.idMask != uint64(m.id) {
		return false
	}
	// Backward shift: each later entry of the run whose home does not
	// lie between the hole and itself moves back into the hole.
	mask := uint64(len(t.slots) - 1)
	for j := (i + 1) & mask; t.slots[j] != 0; j = (j + 1) & mask {
		if (j-t.home(t.key(t.slots[j])))&mask < (j-i)&mask {
			continue // its home is in (i, j]: it must stay after i
		}
		t.slots[i] = t.slots[j]
		i = j
	}
	t.slots[i] = 0
	t.live--
	return true
}

// size returns the number of live entries.
func (t *blockMap) size() int { return t.live + len(t.overflow) }

// grow doubles the table (or allocates the first one) and re-homes
// every live entry.
func (t *blockMap) grow() {
	old := t.slots
	size := max(2*len(old), blockMapMinSize)
	t.slots = make([]uint64, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	for _, s := range old {
		if s == 0 {
			continue
		}
		i := t.home(t.key(s))
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}
