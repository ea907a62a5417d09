package molecular

// Direct tests of the open-addressed block → line table. The
// differential oracle and the index property tests exercise it through
// the cache; these pin the table's own contract — including the states
// a full simulation may take long to reach (delete churn at a fixed
// population, probe runs that share a home slot and wrap past the
// table's end, key 0, the largest blocks a line word holds, blocks that
// share a fingerprint, conditional removal against the wrong holder,
// and homes spaced apart when a table outgrows its key's hash bits).

import (
	"math/bits"
	"testing"

	"molcache/internal/rng"
)

// each calls f for every live entry, in table order, with the molecule
// and slot of the line it names — the tests' view of the whole table.
func (t *blockMap) each(f func(id, slot int)) {
	for _, s := range t.slots {
		if s != 0 {
			f(int(s&t.idMask)-1, int(uint64(s>>t.idBits)&t.slotMask))
		}
	}
}

// holder returns the ID of the molecule the index says holds b, or -1.
func (t *blockMap) holder(b uint64) int {
	pos := t.get(b)
	if pos < 0 {
		return -1
	}
	return pos >> t.slotBits
}

// slabTable is a block index over a synthetic line slab of molecules
// of 1<<slotBits lines, kept the way the cache keeps its own: a line
// enters the slab and the index together, and leaves both together.
type slabTable struct {
	bm    blockMap
	lines []molLine
}

func newSlabTable(molecules int, slotBits uint) *slabTable {
	lines := make([]molLine, molecules<<slotBits)
	return &slabTable{bm: newBlockMap(lines, slotBits, molecules), lines: lines}
}

// pos is the slab position of block b's line in molecule id.
func (st *slabTable) pos(b uint64, id int) int {
	return id<<st.bm.slotBits | int(b&st.bm.slotMask)
}

// put installs b in molecule id, whose slot for b must be empty.
func (st *slabTable) put(b uint64, id int) {
	st.lines[st.pos(b, id)] = lineWord(b, false)
	st.bm.add(b, id)
}

// drop removes b from molecule id when the index names it there,
// reporting whether it did.
func (st *slabTable) drop(b uint64, id int) bool {
	if !st.bm.remove(b, id) {
		return false
	}
	st.lines[st.pos(b, id)] = 0
	return true
}

// occupant returns the block molecule id holds in b's slot, if any.
func (st *slabTable) occupant(b uint64, id int) (uint64, bool) {
	ln := st.lines[st.pos(b, id)]
	return ln.block(), ln.valid()
}

func TestBlockMapBasics(t *testing.T) {
	st := newSlabTable(4, 7)
	bm := &st.bm
	const a, b = 1, 2

	if got := bm.get(0); got != -1 {
		t.Fatalf("empty table returned %d for key 0", got)
	}
	st.put(0, a) // key 0 is a legal block number
	st.put(7, b)
	if bm.holder(0) != a || bm.holder(7) != b {
		t.Fatal("lookups after insert disagree")
	}
	if bm.get(7) != st.pos(7, b) {
		t.Fatalf("get(7) = %d, want slab position %d", bm.get(7), st.pos(7, b))
	}
	if bm.size() != 2 {
		t.Fatalf("size = %d, want 2", bm.size())
	}
	if bm.holder(128) != -1 || bm.holder(7+128) != -1 {
		t.Fatal("a block sharing a held block's slot reads as held")
	}
	if st.drop(7, a) {
		t.Fatal("conditional remove succeeded against the wrong holder")
	}
	if bm.holder(7) != b {
		t.Fatal("failed conditional remove disturbed the entry")
	}
	if !st.drop(7, b) || bm.holder(7) != -1 || bm.size() != 1 {
		t.Fatal("remove of the right holder did not take")
	}
	// The largest block a 64-byte line allows, and the largest any line
	// word holds (a 4-byte line's), answer like any other.
	for _, big := range []uint64{1<<58 - 1, 1<<62 - 1} {
		st.put(big, b)
		if bm.holder(big) != b || bm.holder(big&^(1<<57)) != -1 {
			t.Fatalf("block %#x: holder %d", big, bm.holder(big))
		}
		if !st.drop(big, b) || bm.holder(big) != -1 {
			t.Fatalf("block %#x: remove did not take", big)
		}
	}
}

// TestBlockMapTombstoneChurn holds the population fixed while cycling
// keys through insert/delete far past the table capacity: deletes must
// free their slots, so the table stays sized to the population instead
// of growing without bound.
func TestBlockMapTombstoneChurn(t *testing.T) {
	st := newSlabTable(4, 7)
	const id, population = 3, 100
	for k := uint64(0); k < population; k++ {
		st.put(k, id)
	}
	for k := uint64(0); k < 100_000; k++ {
		if !st.drop(k, id) {
			t.Fatalf("key %d missing before its deletion", k)
		}
		st.put(k+population, id)
		if st.bm.size() != population {
			t.Fatalf("size drifted to %d", st.bm.size())
		}
	}
	if cap := len(st.bm.slots); cap > 1024 {
		t.Errorf("table grew to %d slots for a population of %d; deletes leak slots", cap, population)
	}
	seen := 0
	st.bm.each(func(got, slot int) {
		if got != id {
			t.Errorf("slot %d bound to molecule %d", slot, got)
		}
		seen++
	})
	if seen != population {
		t.Errorf("each visited %d entries, want %d", seen, population)
	}
}

// TestBlockMapSharedFingerprint forces blocks to share their key's hash
// field inside one molecule (different slots, so different entries),
// and to share the whole key (hash and slot) across two molecules,
// where only the confirming read of the slab tells them apart. After
// either of a pair is removed, both lookups stay exact.
func TestBlockMapSharedFingerprint(t *testing.T) {
	st := newSlabTable(768, 7) // Table 2's molecules and lines
	bm := &st.bm
	if bm.idBits != 10 || bits.OnesCount32(bm.hashMask) != 15 {
		t.Fatalf("idBits %d, hash bits %d for 768 molecules of 128 lines; want 10 and 15",
			bm.idBits, bits.OnesCount32(bm.hashMask))
	}
	src := rng.New(0xf1)
	b := uint64(1<<58 - 1) // the largest block a 64-byte line allows
	// sameHash searches out a block other than b in slot whose key's
	// hash field equals b's.
	sameHash := func(slot uint64) uint64 {
		for {
			x := src.Uint64()>>6&^bm.slotMask | slot
			if x != b && bm.key(x)&bm.hashMask == bm.key(b)&bm.hashMask {
				return x
			}
		}
	}
	const m1, m2 = 0, 767
	inOne, twin := sameHash((b+1)&bm.slotMask), sameHash(b&bm.slotMask)
	if bm.key(twin) != bm.key(b) || bm.key(inOne) == bm.key(b) {
		t.Fatal("fingerprint search returned the wrong kind of block")
	}
	for _, tc := range []struct {
		name string
		x    uint64
		idX  int
	}{
		{"one molecule, shared hash field", inOne, m1},
		{"two molecules, shared key", twin, m2},
	} {
		for _, first := range []bool{true, false} {
			gone, goneID, kept, keptID := b, m1, tc.x, tc.idX
			if !first {
				gone, goneID, kept, keptID = kept, keptID, gone, goneID
			}
			st.put(b, m1)
			st.put(tc.x, tc.idX)
			if bm.holder(b) != m1 || bm.holder(tc.x) != tc.idX {
				t.Fatalf("%s: holders %d and %d, want %d and %d", tc.name,
					bm.holder(b), bm.holder(tc.x), m1, tc.idX)
			}
			if !st.drop(gone, goneID) {
				t.Fatalf("%s: remove of %#x did not take", tc.name, gone)
			}
			if bm.holder(gone) != -1 || bm.holder(kept) != keptID {
				t.Fatalf("%s: after removing %#x: holders %d and %d, want -1 and %d", tc.name,
					gone, bm.holder(gone), bm.holder(kept), keptID)
			}
			if !st.drop(kept, keptID) || bm.size() != 0 {
				t.Fatalf("%s: remove of %#x did not take, %d entries left", tc.name, kept, bm.size())
			}
		}
	}
}

// homedKeys searches out n distinct nonzero keys no larger than limit
// whose home slot is the first (or, with last, the last) home of every
// table of up to 1<<logSlots entries: the home in a smaller table is
// the top bits of the home in this one, so both ends stay ends as the
// table grows. The last home is the last slot unless the table's homes
// are spaced apart.
func homedKeys(src *rng.Source, bm *blockMap, n int, logSlots uint, last bool, limit uint64) []uint64 {
	slot := uint64(0)
	if last {
		slot = uint64(^bm.idMask >> (32 - logSlots))
	}
	seen := map[uint64]bool{}
	var out []uint64
	for len(out) < n {
		k := src.Uint64() % (limit + 1)
		if k != 0 && !seen[k] && uint64(bm.key(k)>>(32-logSlots)) == slot {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// wrappedRun reports whether some entry sits below its home slot, i.e.
// its probe run wrapped past the end of the table.
func wrappedRun(bm *blockMap) bool {
	for i, s := range bm.slots {
		if s != 0 && bm.home(s) > i {
			return true
		}
	}
	return false
}

// TestBlockMapMirrorsMap drives a randomized op mix against the table
// and a plain Go map and demands they never disagree, on three
// geometries: Table 2's (768 molecules of 128 lines), a wide ID field
// (2^17 molecules of 4 lines: an 18-bit ID, a 12-bit hash field), and
// one whose tables outgrow the key's 11 hash bits (2^20 molecules of
// one line), so homes are spaced apart. Insertion works as a fill does:
// a block moving to another holder leaves its old one first, and the
// block in the slot it lands in is evicted. Besides a dense key range
// from 0, the pool holds keys searched out to share the first and the
// last home slot of every table the run reaches, so probe runs pile up,
// wrap past the table's end and lose entries from their middle, and the
// largest blocks: 2^58-1 (the largest at 64-byte lines), 2^62-1 (the
// largest a line word holds) and their neighbours. The holders include
// the first and last molecule IDs, and a removal names the right
// holder half the time. The first half of the run mostly inserts, so
// the table grows; the second mostly deletes.
func TestBlockMapMirrorsMap(t *testing.T) {
	for _, g := range []struct {
		molecules int
		slotBits  uint
	}{{768, 7}, {1 << 17, 2}, {1 << 20, 0}} {
		mirrorMap(t, g.molecules, g.slotBits)
	}
}

func mirrorMap(t *testing.T, molecules int, slotBits uint) {
	const (
		ops      = 200_000
		logSlots = 12 // the largest table the population reaches
	)
	src := rng.New(0xb10c)
	st := newSlabTable(molecules, slotBits)
	bm := &st.bm
	var keys []uint64
	for k := uint64(0); k < 4096; k++ {
		keys = append(keys, k)
	}
	keys = append(keys, homedKeys(src, bm, 64, logSlots, false, 1<<58-1)...)
	keys = append(keys, homedKeys(src, bm, 64, logSlots, true, 1<<58-1)...)
	for k := uint64(0); k < 32; k++ {
		keys = append(keys, 1<<58-1-k, 1<<62-1-k)
	}
	// Enough holders for 8,192 lines, spread over the ID space from the
	// first ID to the last.
	nh := 8192 >> slotBits
	holders := make([]int, nh)
	for j := range holders {
		holders[j] = j * (molecules - 1) / (nh - 1)
	}
	oracle := make(map[uint64]int)
	sameEntries := func(i int) {
		t.Helper()
		seen := 0
		bm.each(func(id, slot int) {
			ln := st.lines[id<<slotBits|slot]
			if !ln.valid() || oracle[ln.block()] != id {
				t.Fatalf("%d molecules, op %d: entry names molecule %d slot %d holding %#x (valid %v), oracle %d",
					molecules, i, id, slot, ln.block(), ln.valid(), oracle[ln.block()])
			}
			seen++
		})
		if seen != len(oracle) || bm.live != len(oracle) {
			t.Fatalf("%d molecules, op %d: each visited %d entries, live %d, oracle holds %d",
				molecules, i, seen, bm.live, len(oracle))
		}
	}
	holderOf := func(k uint64) int {
		if id, ok := oracle[k]; ok {
			return id
		}
		return -1
	}
	var wrapped bool
	deletes, midRun := 0, 0
	for i := 0; i < ops; i++ {
		k := keys[src.Intn(len(keys))]
		m := holders[src.Intn(len(holders))]
		op := src.Intn(10)
		switch {
		case op == 0:
			if bm.holder(k) != holderOf(k) {
				t.Fatalf("%d molecules, op %d: holder(%#x) = %d, oracle %d", molecules, i, k, bm.holder(k), holderOf(k))
			}
		case (i < ops/2) == (op <= 7):
			if old, ok := oracle[k]; ok {
				st.drop(k, old)
				delete(oracle, k)
			}
			if x, ok := st.occupant(k, m); ok {
				st.drop(x, m)
				delete(oracle, x)
			}
			st.put(k, m)
			oracle[k] = m
		default:
			if id, ok := oracle[k]; ok && src.Intn(2) == 0 {
				m = id // the right holder half the time, a random one otherwise
			}
			if x, ok := st.occupant(k, m); ok && x != k && bm.key(x) == bm.key(k) {
				// A removal names a line: m's slot for k holds another
				// block with k's key, so this would name that line.
				continue
			}
			want := holderOf(k) == m
			if want {
				mask := len(bm.slots) - 1
				for j := int(bm.key(k) >> bm.hshift); bm.slots[j] != 0; j = (j + 1) & mask {
					if bm.slots[j] == bm.key(k)|uint32(m+1) {
						if bm.slots[(j+1)&mask] != 0 {
							midRun++
						}
						break
					}
				}
			}
			if st.drop(k, m) != want {
				t.Fatalf("%d molecules, op %d: conditional remove of %#x disagreed", molecules, i, k)
			}
			if want {
				delete(oracle, k)
				deletes++
			}
			if bm.holder(k) != holderOf(k) {
				t.Fatalf("%d molecules, op %d: holder(%#x) after remove = %d, oracle %d",
					molecules, i, k, bm.holder(k), holderOf(k))
			}
		}
		if bm.size() != len(oracle) {
			t.Fatalf("%d molecules, op %d: size %d, oracle %d", molecules, i, bm.size(), len(oracle))
		}
		if i%1000 == 999 {
			wrapped = wrapped || wrappedRun(bm)
			sameEntries(i)
			for _, k := range keys {
				if bm.holder(k) != holderOf(k) {
					t.Fatalf("%d molecules, op %d: holder(%#x) = %d, oracle %d", molecules, i, k, bm.holder(k), holderOf(k))
				}
			}
		}
	}
	sameEntries(ops)
	if len(bm.slots) < 1<<logSlots || !wrapped || deletes < 1000 || midRun < 1000 {
		t.Errorf("%d molecules: run did not exercise the table: %d slots (want %d), wrapped=%v, deletes=%d, mid-run deletes=%d",
			molecules, len(bm.slots), 1<<logSlots, wrapped, deletes, midRun)
	}
}
