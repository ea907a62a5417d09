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

import "fmt"

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
	Reads, Writes     uint64
	Invalidations     uint64 // copies killed by remote writes
	Downgrades        uint64 // M/E copies demoted to S by remote reads
	Writebacks        uint64 // dirty copies flushed by the protocol
	SilentUpgrades    uint64 // E -> M on a local write, no traffic
	OwnershipUpgrades uint64 // S -> M (invalidating other sharers)
}

// entry is one line's directory record.
type entry struct {
	sharers uint16
	// owner holds the single E/M holder (-1 when the line is Shared
	// among several caches or uncached).
	owner int8
	dirty bool
}

// Directory is the protocol engine.
type Directory struct {
	lines map[uint64]*entry
	stats Stats
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{lines: make(map[uint64]*entry)}
}

// Stats returns accumulated protocol counters.
func (d *Directory) Stats() Stats { return d.stats }

// StateOf reports cache's state for a line (a testing/inspection aid).
func (d *Directory) StateOf(line uint64, cacheID int) State {
	e := d.lines[line]
	if e == nil || e.sharers&(1<<uint(cacheID)) == 0 {
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

// Read processes a processor read from cacheID and returns the actions.
// A cache ID outside [0, MaxCaches) is rejected with an error and does
// not perturb directory state.
func (d *Directory) Read(line uint64, cacheID int) (Action, error) {
	if err := checkCacheID(cacheID); err != nil {
		return Action{WritebackFrom: -1}, err
	}
	d.stats.Reads++
	e := d.lines[line]
	bit := uint16(1) << uint(cacheID)
	if e == nil {
		// First touch: Exclusive.
		d.lines[line] = &entry{sharers: bit, owner: int8(cacheID)}
		return Action{NewState: Exclusive, WritebackFrom: -1}, nil
	}
	if e.sharers&bit != 0 {
		// Already holding: state unchanged.
		return Action{NewState: d.StateOf(line, cacheID), WritebackFrom: -1}, nil
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
	e := d.lines[line]
	if e == nil {
		d.lines[line] = &entry{sharers: bit, owner: int8(cacheID), dirty: true}
		return Action{NewState: Modified, WritebackFrom: -1}, nil
	}
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
	e := d.lines[line]
	if e == nil {
		return nil
	}
	bit := uint16(1) << uint(cacheID)
	e.sharers &^= bit
	if e.owner == int8(cacheID) {
		e.owner = -1
		e.dirty = false
	}
	if e.sharers == 0 {
		delete(d.lines, line)
	}
	return nil
}

// Lines returns the number of tracked lines (test aid).
func (d *Directory) Lines() int { return len(d.lines) }

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
	for line, e := range d.lines {
		fn(LineInfo{Line: line, Sharers: e.sharers, Owner: int(e.owner), Dirty: e.dirty})
	}
}
