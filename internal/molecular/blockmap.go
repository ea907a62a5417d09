package molecular

import "math/bits"

// blockMap is the fast-path index's hash table: block number → holding
// molecule, open-addressed with linear probing over a power-of-two
// entry array and Fibonacci (multiplicative) hashing. The Go runtime
// map it replaces was the single largest cost of a steady-state hit —
// the generic hashing and bucket machinery cost more than the rest of
// the lookup combined. This table does one multiply and, at the load
// factors it maintains, usually one probe; lookups never allocate, and
// growth happens only on insert, which is the miss path.
//
// Deletion is by backward shift (the idiom coherence.Directory uses):
// the later entries of the probe run move back into the hole where
// their home slot allows, so every remaining key stays reachable from
// its home and the table holds no tombstones. Key 0 is a legal block
// number, so slot state lives in the value pointer: nil = empty.
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

type blockEntry struct {
	key uint64
	val *Molecule
}

type blockMap struct {
	entries []blockEntry
	// shift is 64 - log2(len(entries)): the hash's high bits become the
	// starting slot, so no masking is needed on the first probe.
	shift uint
	live  int
}

// home returns b's home slot.
func (t *blockMap) home(b uint64) uint64 {
	return (b * blockHashMul) >> t.shift
}

// get returns the molecule holding block b, or nil.
func (t *blockMap) get(b uint64) *Molecule {
	if len(t.entries) == 0 {
		return nil
	}
	mask := uint64(len(t.entries) - 1)
	for i := t.home(b); ; i = (i + 1) & mask {
		if e := &t.entries[i]; e.val == nil || e.key == b {
			return e.val
		}
	}
}

// find returns the slot holding b and true, or, when b is absent, the
// empty slot that ends its probe chain and false. The table must be
// non-empty.
func (t *blockMap) find(b uint64) (uint64, bool) {
	mask := uint64(len(t.entries) - 1)
	for i := t.home(b); ; i = (i + 1) & mask {
		e := &t.entries[i]
		if e.val == nil {
			return i, false
		}
		if e.key == b {
			return i, true
		}
	}
}

// set binds block b to molecule m, updating in place if b is present.
func (t *blockMap) set(b uint64, m *Molecule) {
	if len(t.entries) == 0 {
		t.grow()
	}
	i, ok := t.find(b)
	if ok {
		t.entries[i].val = m
		return
	}
	if (t.live+1)*4 > len(t.entries)*3 {
		t.grow()
		i, _ = t.find(b)
	}
	t.entries[i] = blockEntry{key: b, val: m}
	t.live++
}

// remove drops the entry for b if (and only if) it names m, reporting
// whether it did — the conditional the index maintenance contract needs
// (a companion's eviction must not take a different holder's entry).
func (t *blockMap) remove(b uint64, m *Molecule) bool {
	if len(t.entries) == 0 {
		return false
	}
	i, ok := t.find(b)
	if !ok || t.entries[i].val != m {
		return false
	}
	// Backward shift: each later entry of the run whose home does not
	// lie between the hole and itself moves back into the hole.
	mask := uint64(len(t.entries) - 1)
	for j := (i + 1) & mask; t.entries[j].val != nil; j = (j + 1) & mask {
		if (j-t.home(t.entries[j].key))&mask < (j-i)&mask {
			continue // its home is in (i, j]: it must stay after i
		}
		t.entries[i] = t.entries[j]
		i = j
	}
	t.entries[i] = blockEntry{}
	t.live--
	return true
}

// size returns the number of live entries.
func (t *blockMap) size() int { return t.live }

// each calls f for every live entry. The order is a deterministic
// function of the insertion history, but callers must not depend on it;
// it exists to build snapshots and run audits.
func (t *blockMap) each(f func(b uint64, m *Molecule)) {
	for i := range t.entries {
		if v := t.entries[i].val; v != nil {
			f(t.entries[i].key, v)
		}
	}
}

// grow doubles the table (or allocates the first one) and re-homes
// every live entry.
func (t *blockMap) grow() {
	old := t.entries
	size := max(2*len(old), blockMapMinSize)
	t.entries = make([]blockEntry, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	for _, e := range old {
		if e.val == nil {
			continue
		}
		i := t.home(e.key)
		for t.entries[i].val != nil {
			i = (i + 1) & mask
		}
		t.entries[i] = e
	}
}
