package molecular

import "fmt"

// Tile is a physical group of molecules sharing one read/write port.
// Every processor (and thus every application) has a home tile that is
// searched first on every access.
type Tile struct {
	id        int
	cluster   *Cluster
	molecules []*Molecule
	free      []*Molecule // unassigned molecules, LIFO
	// firstLine and endLine bound the tile's lines in the cache's slab:
	// its molecules are numbered consecutively, so their lines are one
	// run.
	firstLine, endLine int
}

// ID returns the tile number (global across the cache).
func (t *Tile) ID() int { return t.id }

// Cluster returns the owning tile cluster.
func (t *Tile) Cluster() *Cluster { return t.cluster }

// holdsLine reports whether the slab's line pos belongs to one of the
// tile's molecules (never for pos -1).
func (t *Tile) holdsLine(pos int) bool { return pos >= t.firstLine && pos < t.endLine }

// takeFree removes and returns one free molecule, or nil when empty.
func (t *Tile) takeFree() *Molecule {
	if len(t.free) == 0 {
		return nil
	}
	m := t.free[len(t.free)-1]
	t.free = t.free[:len(t.free)-1]
	return m
}

// release returns a withdrawn molecule to the tile's free pool. The
// caller must already have flushed and disowned it. A failed molecule
// is never pooled again: releasing one is a silent no-op, so every
// withdrawal path degrades gracefully around retired hardware.
// Panics on a cross-tile or still-owned release — both mean the
// free-pool bookkeeping is corrupt.
func (t *Tile) release(m *Molecule) {
	if m.tile != t {
		panic(fmt.Sprintf("molecular: molecule %d released to foreign tile %d", m.id, t.id))
	}
	if m.owned {
		panic(fmt.Sprintf("molecular: molecule %d released while still owned", m.id))
	}
	if m.failed {
		return
	}
	t.free = append(t.free, m)
}

// removeFree withdraws a specific molecule from the free pool (the
// retirement path for molecules that fail while unassigned). Reports
// whether it was found.
func (t *Tile) removeFree(m *Molecule) bool {
	for i, x := range t.free {
		if x == m {
			t.free = append(t.free[:i], t.free[i+1:]...)
			return true
		}
	}
	return false
}

// Cluster is a group of tiles governed by one Ulmo controller. The Ulmo
// handles tile misses — searching the sibling tiles that contribute
// molecules to the requesting application's region — and inter-cluster
// coherence traffic.
type Cluster struct {
	tiles []*Tile
}

// Tiles returns the cluster's tiles.
func (c *Cluster) Tiles() []*Tile { return c.tiles }

// FreeCount returns the number of unassigned molecules in the cluster.
func (c *Cluster) FreeCount() int {
	n := 0
	for _, t := range c.tiles {
		n += len(t.free)
	}
	return n
}

// takeFreePreferring removes a free molecule, preferring the given home
// tile and falling back to the Ulmo's sibling tiles in index order.
// Returns nil when the whole cluster is exhausted — the "no free
// molecules, no resizing" phase the paper observes for cache-intensive
// mixes below the threshold size.
func (c *Cluster) takeFreePreferring(home *Tile) *Molecule {
	if m := home.takeFree(); m != nil {
		return m
	}
	for _, t := range c.tiles {
		if t == home {
			continue
		}
		if m := t.takeFree(); m != nil {
			return m
		}
	}
	return nil
}
