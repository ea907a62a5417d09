package cmp

// l1Sets is the number of sets in a core's L1.
const l1Sets = l1Size / lineSize / l1Ways

// filter's access handles exactly four ways.
var (
	_ [l1Ways - 4]struct{}
	_ [4 - l1Ways]struct{}
)

// filter is a core's private L1 data cache as stage 1 needs it: whether
// a reference hits, and nothing else. Each set holds its resident
// blocks in recency order, most recent first, stored as block+1 so that
// 0 is an empty way. A true-LRU cache's hits depend only on that order,
// and writes only on whether the line was resident, so the filter hits
// exactly where a write-allocate LRU cache.Cache of the same geometry
// does (TestL1FilterMatchesCache). It keeps no dirty bits, stamps or
// ledger: an L1 eviction never reaches the L2, and no entry point reads
// the L1's counts.
type filter [l1Sets][l1Ways]uint64

// access applies a reference to the line holding a, read or write, and
// reports whether it hit. A hit moves the block to the front of its set;
// a miss inserts it there and drops the least recently used block.
func (f *filter) access(a uint64) bool {
	block := a / lineSize
	s := &f[block%l1Sets]
	key := block + 1
	switch key {
	case s[0]:
		return true
	case s[1]:
		s[0], s[1] = key, s[0]
		return true
	case s[2]:
		s[0], s[1], s[2] = key, s[0], s[1]
		return true
	}
	// A hit on the least recently used way and a miss shift alike.
	hit := s[3] == key
	s[0], s[1], s[2], s[3] = key, s[0], s[1], s[2]
	return hit
}
