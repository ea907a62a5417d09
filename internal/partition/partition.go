// Package partition implements the cache-partitioning schemes the paper
// compares against in its related-work discussion (§2), so that the
// molecular cache can be evaluated against real alternatives rather than
// only unmanaged shared caches:
//
//   - ModifiedLRU: Suh, Rudolph & Devadas — per-process block quotas over
//     a shared set-associative cache; a process under its quota replaces
//     the set's global LRU block, one at/over it replaces its own LRU
//     block.
//   - ColumnCache: Suh et al.'s column caching — replacement for each
//     process is restricted to an assigned subset of ways ("columns");
//     lookup still searches the full set.
//   - HomeBank: Kim, Lee & Park's POCA-style process-ownership cache —
//     a multi-banked cache where each process has a home bank searched
//     (and filled) first, with a global fallback search.
//
// All three implement engine.Cache, so they drop into the same harnesses
// as the traditional and molecular models.
package partition

import (
	"fmt"

	"molcache/internal/addr"
	"molcache/internal/engine"
	"molcache/internal/stats"
	"molcache/internal/trace"
)

// line is one cache line's metadata.
type line struct {
	tag   uint64
	asid  uint16
	valid bool
	dirty bool
	stamp uint64 // LRU timestamp
}

// base carries the geometry and storage shared by the schemes here.
type base struct {
	ways   int
	sets   int
	shift  uint
	mask   uint64
	clock  uint64
	lines  []line
	ledger stats.Ledger
}

func newBase(size uint64, ways int, lineSize uint64) (*base, error) {
	if err := addr.CheckPow2("size", size); err != nil {
		return nil, err
	}
	if err := addr.CheckPow2("line size", lineSize); err != nil {
		return nil, err
	}
	if ways < 1 || !addr.IsPow2(uint64(ways)) {
		return nil, fmt.Errorf("partition: ways must be a positive power of two, got %d", ways)
	}
	lines := size / lineSize
	if lines == 0 || lines%uint64(ways) != 0 || lines/uint64(ways) == 0 {
		return nil, fmt.Errorf("partition: size %d does not divide into %d ways of %dB lines",
			size, ways, lineSize)
	}
	sets := int(lines) / ways
	return &base{
		ways:  ways,
		sets:  sets,
		shift: addr.Log2(lineSize),
		mask:  uint64(sets - 1),
		lines: make([]line, int(lines)),
	}, nil
}

// locate returns (set base index, tag) for an address.
func (b *base) locate(a uint64) (int, uint64) {
	block := a >> b.shift
	set := int(block & b.mask)
	tag := block >> addr.Log2(uint64(b.sets))
	return set * b.ways, tag
}

// probe searches the set for the tag; on a hit it refreshes LRU state
// and applies the write. Returns the hit way or -1.
func (b *base) probe(setBase int, tag uint64, r trace.Ref) int {
	for w := 0; w < b.ways; w++ {
		ln := &b.lines[setBase+w]
		if ln.valid && ln.tag == tag {
			b.clock++
			ln.stamp = b.clock
			if r.Kind == trace.Write {
				ln.dirty = true
			}
			return w
		}
	}
	return -1
}

// install fills way w of the set with the reference's line, reporting
// eviction effects into res.
func (b *base) install(setBase, w int, tag uint64, r trace.Ref, res *engine.Result) {
	ln := &b.lines[setBase+w]
	if ln.valid {
		res.LinesEvicted++
		if ln.dirty {
			res.Writebacks++
		}
	}
	b.clock++
	*ln = line{
		tag:   tag,
		asid:  r.ASID,
		valid: true,
		dirty: r.Kind == trace.Write,
		stamp: b.clock,
	}
	res.LinesFetched = 1
}

// Ledger exposes per-ASID hit/miss counts.
func (b *base) Ledger() *stats.Ledger { return &b.ledger }

// occupancy counts resident lines per ASID (test/metering aid).
func (b *base) occupancy() map[uint16]int {
	out := map[uint16]int{}
	for i := range b.lines {
		if b.lines[i].valid {
			out[b.lines[i].asid]++
		}
	}
	return out
}
