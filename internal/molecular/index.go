package molecular

// This file is the fast-path block index: a per-region table from block
// number to the molecule holding it, maintained at every point a line
// enters or leaves a molecule the region owns (fill, companion
// back-invalidation, line corruption, molecule withdrawal, retirement
// and rebalance). The index answers hit/miss in
// O(1) while the *modelled* probe count — the energy-relevant quantity
// the paper's selective enablement minimizes — is still computed from
// region/tile geometry, so simulated results are identical to the
// linear probe model the index replaces (Cache.UseReferenceProbe keeps
// that model alive as a differential oracle).
//
// Invariant: r.index holds an entry for block b naming molecule m
// exactly when m is owned by r and holds a valid line with tag b. Within
// one region the holder is unique (the duplicate-line rule
// CheckInvariants enforces), so a flat block → line table (blockmap.go)
// suffices, and a requestor's lookup consults its own region's index
// alone.

// indexAdd records m as the holder of block, which the index must not
// hold yet.
func (r *Region) indexAdd(block uint64, m *Molecule) {
	r.index.add(block, m.id)
}

// indexRemove drops the index entry for block if (and only if) it names
// m — a stale entry for a different holder must survive its companion's
// eviction.
func (r *Region) indexRemove(block uint64, m *Molecule) {
	r.index.remove(block, m.id)
}

// indexMolecule registers every resident line of m. Molecules normally
// arrive at a region flushed (free-pool discipline), so this is a cheap
// sweep over invalid lines; it keeps attach correct even for a molecule
// carrying residue.
func (r *Region) indexMolecule(m *Molecule) {
	for _, ln := range m.lines {
		if ln.valid() {
			r.indexAdd(ln.block(), m)
		}
	}
}

// unindexMolecule withdraws every resident line of m from the index —
// the detach/retire/rebalance half of the maintenance contract, run
// before the flush destroys the tags.
func (r *Region) unindexMolecule(m *Molecule) {
	for _, ln := range m.lines {
		if ln.valid() {
			r.indexRemove(ln.block(), m)
		}
	}
}

// fillVictim installs the lineFactor-aligned group containing block into
// victim, keeping the index in step: tags about to be evicted leave the
// index, the installed group enters it. It returns fill's eviction and
// writeback counts.
func (r *Region) fillVictim(victim *Molecule, block uint64, write bool, clock uint64) (evicted, writebacks int) {
	group := block &^ uint64(r.lineFactor-1)
	for i := 0; i < r.lineFactor; i++ {
		if ln := victim.lines[victim.index(group+uint64(i))]; ln.valid() {
			r.indexRemove(ln.block(), victim)
		}
	}
	evicted, writebacks = victim.fill(block, r.lineFactor, write, clock)
	for i := 0; i < r.lineFactor; i++ {
		r.indexAdd(group+uint64(i), victim)
	}
	return evicted, writebacks
}
