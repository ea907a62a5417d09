// Package coherence implements a directory-based MESI protocol for the
// private L1 caches of the CMP substrate (the role the paper assigns to
// the Ulmos' "Cache Coherency Unit"). The directory tracks every line's
// global state and sharer set and, for each processor read or write,
// returns the actions the caches must apply (invalidations, downgrades,
// writebacks) together with the requestor's resulting state.
//
// The package is pure protocol: it never touches cache arrays itself, so
// it can be tested exhaustively as a state machine and reused by any
// cache model.
package coherence

import (
	"fmt"
	"math/bits"
)

// State is a MESI line state.
type State uint8

// The MESI states.
const (
	// Invalid: the cache holds no copy.
	Invalid State = iota
	// Shared: a clean copy, possibly held by several caches.
	Shared
	// Exclusive: the only copy, clean.
	Exclusive
	// Modified: the only copy, dirty.
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// MaxCaches bounds the sharer bitmask.
const MaxCaches = 16

// Action tells the caches what to do for one request.
type Action struct {
	// NewState is the requestor's resulting state.
	NewState State
	// InvalidateMask marks caches (bit i = cache i) that must drop the
	// line.
	InvalidateMask uint16
	// DowngradeMask marks caches that must demote the line to Shared
	// (clearing the dirty bit after the writeback below).
	DowngradeMask uint16
	// WritebackFrom is the cache that must write its dirty copy back
	// (-1 when none). On a read it accompanies a downgrade; on a write,
	// an invalidation.
	WritebackFrom int8
}

// Stats counts protocol events.
type Stats struct {
	// Reads and Writes count the requests that reach the directory. A
	// caller may keep requests whose outcome it already knows away from
	// it: the CMP substrate sends no read hit, and no write hit on a line
	// its L1 already holds dirty (the directory records that cache as
	// the line's dirty owner and sole sharer, so Write would change
	// nothing but this count).
	Reads, Writes     uint64
	Invalidations     uint64 // copies killed by remote writes
	Downgrades        uint64 // M/E copies demoted to S by remote reads
	Writebacks        uint64 // dirty copies flushed by the protocol
	SilentUpgrades    uint64 // E -> M on a local write, no traffic
	OwnershipUpgrades uint64 // S -> M (invalidating other sharers)
}

// entry is one line's directory record. A tracked line always has at
// least one sharer, so sharers == 0 marks an empty table slot.
type entry struct {
	sharers uint16
	// owner holds the single E/M holder (-1 when the line is Shared
	// among several caches or uncached).
	owner int8
	dirty bool
}

// state is cacheID's MESI state under e.
func (e *entry) state(cacheID int) State {
	if e.sharers&(1<<uint(cacheID)) == 0 {
		return Invalid
	}
	if e.owner == int8(cacheID) {
		if e.dirty {
			return Modified
		}
		return Exclusive
	}
	return Shared
}

// slot is one cell of the directory's line table, the entry stored
// inline beside its line address.
type slot struct {
	line uint64
	e    entry
}

// minSlots is the line table's initial capacity.
const minSlots = 64

// lineHashMul is 2^64 / φ, the Fibonacci-hashing multiplier (the same
// one the molecular cache's block index uses): the high bits of the
// product avalanche well even for line-aligned addresses.
const lineHashMul = 0x9e3779b97f4a7c15

// Directory is the protocol engine. Its line table is open-addressed
// with linear probing over a power-of-two slot array: a request costs
// one multiply and, at the load the table keeps (at most 3/4), a probe
// or two, with no heap object per line. Evict deletes by backward
// shift, so the table never holds tombstones.
type Directory struct {
	slots []slot
	// shift is 64 - log2(len(slots)): the hash's high bits are the
	// home slot.
	shift uint
	live  int
	stats Stats
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory { return &Directory{} }

// Stats returns accumulated protocol counters.
func (d *Directory) Stats() Stats { return d.stats }

// StateOf reports cache's state for a line (a testing/inspection aid).
func (d *Directory) StateOf(line uint64, cacheID int) State {
	i, ok := d.find(line)
	if !ok {
		return Invalid
	}
	return d.slots[i].e.state(cacheID)
}

// home returns line's home slot.
func (d *Directory) home(line uint64) uint64 {
	return (line * lineHashMul) >> d.shift
}

// find returns the slot holding line and true, or, when line is not
// tracked, the empty slot that ends its probe chain and false.
func (d *Directory) find(line uint64) (uint64, bool) {
	if len(d.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(d.slots) - 1)
	for i := d.home(line); ; i = (i + 1) & mask {
		s := &d.slots[i]
		if s.e.sharers == 0 {
			return i, false
		}
		if s.line == line {
			return i, true
		}
	}
}

// insert tracks a new line at i, the empty slot find returned for it,
// growing the table first when the insert would pass 3/4 load.
func (d *Directory) insert(i, line uint64, e entry) {
	if (d.live+1)*4 > len(d.slots)*3 {
		d.grow()
		i, _ = d.find(line)
	}
	d.slots[i] = slot{line: line, e: e}
	d.live++
}

// grow doubles the table and re-homes every tracked line.
func (d *Directory) grow() {
	old := d.slots
	size := max(2*len(old), minSlots)
	d.slots = make([]slot, size)
	d.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	for _, s := range old {
		if s.e.sharers == 0 {
			continue
		}
		i := d.home(s.line)
		for d.slots[i].e.sharers != 0 {
			i = (i + 1) & mask
		}
		d.slots[i] = s
	}
}

// remove empties slot i by backward shift: each later entry of the
// probe run whose home does not lie between the hole and itself moves
// back into the hole, so every remaining line stays reachable from its
// home without tombstones.
func (d *Directory) remove(i uint64) {
	mask := uint64(len(d.slots) - 1)
	for j := (i + 1) & mask; d.slots[j].e.sharers != 0; j = (j + 1) & mask {
		if (j-d.home(d.slots[j].line))&mask < (j-i)&mask {
			continue // its home is in (i, j]: it must stay after i
		}
		d.slots[i] = d.slots[j]
		i = j
	}
	d.slots[i] = slot{}
	d.live--
}

// Read processes a processor read from cacheID and returns the actions.
// A cache ID outside [0, MaxCaches) is rejected with an error and does
// not perturb directory state.
func (d *Directory) Read(line uint64, cacheID int) (Action, error) {
	if err := checkCacheID(cacheID); err != nil {
		return Action{WritebackFrom: -1}, err
	}
	d.stats.Reads++
	bit := uint16(1) << uint(cacheID)
	i, ok := d.find(line)
	if !ok {
		// First touch: Exclusive.
		d.insert(i, line, entry{sharers: bit, owner: int8(cacheID)})
		return Action{NewState: Exclusive, WritebackFrom: -1}, nil
	}
	e := &d.slots[i].e
	if e.sharers&bit != 0 {
		// Already holding: state unchanged.
		return Action{NewState: e.state(cacheID), WritebackFrom: -1}, nil
	}
	act := Action{NewState: Shared, WritebackFrom: -1}
	if e.owner >= 0 {
		// The E/M holder is demoted to Shared; a dirty copy is first
		// written back.
		act.DowngradeMask = 1 << uint(e.owner)
		d.stats.Downgrades++
		if e.dirty {
			act.WritebackFrom = e.owner
			d.stats.Writebacks++
			e.dirty = false
		}
		e.owner = -1
	}
	e.sharers |= bit
	return act, nil
}

// Write processes a processor write from cacheID and returns the
// actions. A cache ID outside [0, MaxCaches) is rejected with an error
// and does not perturb directory state.
func (d *Directory) Write(line uint64, cacheID int) (Action, error) {
	if err := checkCacheID(cacheID); err != nil {
		return Action{WritebackFrom: -1}, err
	}
	d.stats.Writes++
	bit := uint16(1) << uint(cacheID)
	i, ok := d.find(line)
	if !ok {
		d.insert(i, line, entry{sharers: bit, owner: int8(cacheID), dirty: true})
		return Action{NewState: Modified, WritebackFrom: -1}, nil
	}
	e := &d.slots[i].e
	act := Action{NewState: Modified, WritebackFrom: -1}
	switch {
	case e.owner == int8(cacheID):
		if !e.dirty {
			// E -> M: silent upgrade.
			d.stats.SilentUpgrades++
		}
	case e.sharers&bit != 0:
		// S -> M: invalidate the other sharers.
		d.stats.OwnershipUpgrades++
		act.InvalidateMask = e.sharers &^ bit
		d.countInvalidations(act.InvalidateMask)
	default:
		// Write miss: invalidate everyone; a dirty owner writes back.
		act.InvalidateMask = e.sharers
		d.countInvalidations(act.InvalidateMask)
		if e.owner >= 0 && e.dirty {
			act.WritebackFrom = e.owner
			d.stats.Writebacks++
		}
	}
	e.sharers = bit
	e.owner = int8(cacheID)
	e.dirty = true
	return act, nil
}

// Evict records that cacheID silently dropped the line (a replacement).
// dirty copies are written back by the evicting cache itself; the
// directory only forgets the sharer. An out-of-range cache ID is
// rejected with an error.
func (d *Directory) Evict(line uint64, cacheID int) error {
	if err := checkCacheID(cacheID); err != nil {
		return err
	}
	i, ok := d.find(line)
	if !ok {
		return nil
	}
	e := &d.slots[i].e
	bit := uint16(1) << uint(cacheID)
	e.sharers &^= bit
	if e.owner == int8(cacheID) {
		e.owner = -1
		e.dirty = false
	}
	if e.sharers == 0 {
		d.remove(i)
	}
	return nil
}

// Lines returns the number of tracked lines (test aid).
func (d *Directory) Lines() int { return d.live }

// countInvalidations adds one invalidation per set bit.
func (d *Directory) countInvalidations(mask uint16) {
	for ; mask != 0; mask &= mask - 1 {
		d.stats.Invalidations++
	}
}

// checkCacheID validates a requestor against the sharer-bitmask bound.
func checkCacheID(cacheID int) error {
	if cacheID < 0 || cacheID >= MaxCaches {
		return fmt.Errorf("coherence: cache id %d outside [0,%d)", cacheID, MaxCaches)
	}
	return nil
}

// LineInfo describes one directory entry for inspection (the invariant
// checker's view of the protocol state).
type LineInfo struct {
	// Line is the tracked line address.
	Line uint64
	// Sharers is the bitmask of caches holding a copy.
	Sharers uint16
	// Owner is the single E/M holder, -1 when none.
	Owner int
	// Dirty reports whether the owner's copy is modified.
	Dirty bool
}

// EachLine calls fn for every tracked line. Read-only; iteration order
// is unspecified.
func (d *Directory) EachLine(fn func(LineInfo)) {
	for i := range d.slots {
		if s := &d.slots[i]; s.e.sharers != 0 {
			fn(LineInfo{Line: s.line, Sharers: s.e.sharers, Owner: int(s.e.owner), Dirty: s.e.dirty})
		}
	}
}
