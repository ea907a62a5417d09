// Package engine defines the contract every cache model in the repository
// implements. Both the traditional set-associative caches (the paper's
// baselines, internal/cache) and the molecular cache (the paper's
// contribution, internal/molecular) are trace-driven state machines that
// consume one memory reference at a time and report what the hardware
// would have done; the experiment harness and the CMP substrate only ever
// talk to this interface.
package engine

import (
	"context"

	"molcache/internal/trace"
)

// Result describes the externally visible effects of one cache access.
// The probe counts are the inputs to the energy model: dynamic energy per
// access = TagProbes x E(tag bank) + DataReads x E(data bank) for a
// conventional cache, or per-molecule accounting for a molecular cache.
type Result struct {
	// Hit reports whether the reference hit in this cache.
	Hit bool
	// LinesFetched is the number of lines brought in from the next
	// level on a miss (greater than 1 under the paper's variable line
	// size scheme). Zero on a hit.
	LinesFetched int
	// LinesEvicted is the number of valid lines displaced to make room.
	LinesEvicted int
	// Writebacks is the number of dirty lines written back to the next
	// level as a consequence of this access.
	Writebacks int
	// TagProbes is the number of tag comparisons performed. For an
	// n-way set-associative cache this is n per level searched; for a
	// molecular cache it is the number of molecules actually probed
	// (the quantity selective enablement minimizes).
	TagProbes int
	// DataReads is the number of data array banks activated.
	DataReads int
	// RemoteTileHit reports a hit satisfied by a sibling tile via the
	// Ulmo (molecular caches only) — a longer, more energy-hungry path.
	RemoteTileHit bool
}

// The memory latencies, in cycles, behind an L1 miss: the round trip to
// an L2 hit, and to DRAM on an L2 miss. They pace the CMP substrate's
// cores (internal/cmp) and model the molecular cache's service time.
const (
	L2HitCycles  = 12
	MemoryCycles = 200
)

// Cache is a trace-driven cache model.
type Cache interface {
	// Access applies one reference and returns its effects.
	Access(r trace.Ref) Result
	// Name identifies the configuration in reports,
	// e.g. "8MB 4-way" or "6MB Molecular (Randy)".
	Name() string
}

// Run replays a trace through c and returns aggregate access counts.
// It is the minimal Dinero-style driver; experiments that need per-app
// bookkeeping use richer drivers layered on the same interface.
func Run(c Cache, refs []trace.Ref) (hits, misses uint64) {
	for _, r := range refs {
		if c.Access(r).Hit {
			hits++
		} else {
			misses++
		}
	}
	return hits, misses
}

// cancelCheckStride is how many references RunContext replays between
// context checks: coarse enough to keep the hot loop branch-free in
// practice, fine enough that a cancelled sweep job stops within
// microseconds.
const cancelCheckStride = 1 << 14

// RunContext is Run with cooperative cancellation: replay stops at the
// next stride boundary after ctx is cancelled and the partial counts are
// returned alongside ctx's error. It is the replay driver for scheduled
// jobs (internal/runner), where the first failing configuration cancels
// the rest of the batch.
func RunContext(ctx context.Context, c Cache, refs []trace.Ref) (hits, misses uint64, err error) {
	for len(refs) > 0 {
		if err := ctx.Err(); err != nil {
			return hits, misses, err
		}
		n := len(refs)
		if n > cancelCheckStride {
			n = cancelCheckStride
		}
		h, m := Run(c, refs[:n])
		hits += h
		misses += m
		refs = refs[n:]
	}
	return hits, misses, ctx.Err()
}
