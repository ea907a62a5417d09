package molecular

// Direct tests of the open-addressed block → molecule table. The
// differential oracle and the index property tests exercise it through
// the cache; these pin the table's own contract — including the states
// a full simulation may take long to reach (delete churn at a fixed
// population, probe runs that share a home slot and wrap past the
// table's end, key 0, conditional removal against the wrong holder,
// blocks on both sides of the largest one a packed slot holds).

import (
	"math/bits"
	"slices"
	"testing"

	"molcache/internal/rng"
)

// each calls f for every live entry: the packed slots in table order,
// then the overflow blocks in ascending order — the tests' view of the
// whole table.
func (t *blockMap) each(f func(b uint64, m *Molecule)) {
	for _, s := range t.slots {
		if s != 0 {
			f(t.key(s), t.mols[s&t.idMask])
		}
	}
	big := make([]uint64, 0, len(t.overflow))
	for b := range t.overflow {
		big = append(big, b)
	}
	slices.Sort(big)
	for _, b := range big {
		f(b, t.overflow[b])
	}
}

// synthMols returns a molecule table of n entries holding a molecule at
// each given ID and nil elsewhere: the slot decoding reads the ID field
// through it, so a sparse table covers wide ID fields cheaply.
func synthMols(n int, ids ...int) []*Molecule {
	mols := make([]*Molecule, n)
	for _, id := range ids {
		mols[id] = &Molecule{id: id}
	}
	return mols
}

func TestBlockMapBasics(t *testing.T) {
	mols := synthMols(4, 1, 2)
	bm := newBlockMap(mols)
	a, b := mols[1], mols[2]

	if got := bm.get(0); got != nil {
		t.Fatalf("empty table returned %v for key 0", got)
	}
	bm.set(0, a) // key 0 is a legal block number
	bm.set(7, b)
	if bm.get(0) != a || bm.get(7) != b {
		t.Fatal("lookups after insert disagree")
	}
	if bm.size() != 2 {
		t.Fatalf("size = %d, want 2", bm.size())
	}
	bm.set(0, b) // in-place update
	if bm.get(0) != b || bm.size() != 2 {
		t.Fatal("update changed size or missed")
	}
	if bm.remove(7, a) {
		t.Fatal("conditional remove succeeded against the wrong holder")
	}
	if bm.get(7) != b {
		t.Fatal("failed conditional remove disturbed the entry")
	}
	if !bm.remove(7, b) || bm.get(7) != nil || bm.size() != 1 {
		t.Fatal("remove of the right holder did not take")
	}
}

// TestBlockMapTombstoneChurn holds the population fixed while cycling
// keys through insert/delete far past the table capacity: deletes must
// free their slots, so the table stays sized to the population instead
// of growing without bound.
func TestBlockMapTombstoneChurn(t *testing.T) {
	mols := synthMols(4, 3)
	bm := newBlockMap(mols)
	m := mols[3]
	const population = 100
	for k := uint64(0); k < population; k++ {
		bm.set(k, m)
	}
	for k := uint64(0); k < 100_000; k++ {
		if !bm.remove(k, m) {
			t.Fatalf("key %d missing before its deletion", k)
		}
		bm.set(k+population, m)
		if bm.size() != population {
			t.Fatalf("size drifted to %d", bm.size())
		}
	}
	if cap := len(bm.slots); cap > 1024 {
		t.Errorf("table grew to %d slots for a population of %d; deletes leak slots", cap, population)
	}
	seen := 0
	bm.each(func(k uint64, got *Molecule) {
		if got != m {
			t.Errorf("key %d bound to %v", k, got)
		}
		seen++
	})
	if seen != population {
		t.Errorf("each visited %d entries, want %d", seen, population)
	}
}

// TestBlockMapPackedBound pins the boundary between the packed slots
// and the overflow map: the largest packable block lands in a slot, the
// next one in the map, and both answer, update and delete like any
// other key. The molecule table's width sets the bound, so a table of
// 768 molecules (Table 2's cache) leaves 54 bits for the block.
func TestBlockMapPackedBound(t *testing.T) {
	mols := synthMols(768, 0, 767)
	bm := newBlockMap(mols)
	if bm.idBits != 10 {
		t.Fatalf("idBits = %d for 768 molecules, want 10", bm.idBits)
	}
	last := uint64(1)<<54 - 2
	if bm.maxPacked != last {
		t.Fatalf("maxPacked = %#x, want %#x", bm.maxPacked, last)
	}
	lo, hi := mols[0], mols[767]
	bm.set(last, hi)
	bm.set(last+1, lo)
	if bm.live != 1 || len(bm.overflow) != 1 || bm.size() != 2 {
		t.Fatalf("live %d, overflow %d, size %d: want one packed and one overflow entry",
			bm.live, len(bm.overflow), bm.size())
	}
	if bm.get(last) != hi || bm.get(last+1) != lo {
		t.Fatal("lookups across the bound disagree")
	}
	bm.set(last+1, hi)
	if bm.get(last+1) != hi || bm.size() != 2 {
		t.Fatal("overflow update changed size or missed")
	}
	if bm.remove(last+1, lo) || bm.remove(last, lo) {
		t.Fatal("conditional remove succeeded against the wrong holder")
	}
	if !bm.remove(last+1, hi) || !bm.remove(last, hi) || bm.size() != 0 {
		t.Fatal("removes across the bound did not take")
	}
}

// homedKeys searches out n distinct nonzero keys no larger than limit
// whose home slot is slot in every table of up to 1<<logSlots entries.
// slot must be 0 or the last slot: the home in a smaller table is the
// top bits of the home in this one, so both ends stay ends as the table
// grows.
func homedKeys(src *rng.Source, n int, logSlots uint, slot, limit uint64) []uint64 {
	seen := map[uint64]bool{}
	var out []uint64
	for len(out) < n {
		k := src.Uint64() % (limit + 1)
		if k != 0 && !seen[k] && (k*blockHashMul)>>(64-logSlots) == slot {
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
		if s != 0 && bm.home(bm.key(s)) > uint64(i) {
			return true
		}
	}
	return false
}

// TestBlockMapMirrorsMap drives a randomized op mix against the table
// and a plain Go map and demands they never disagree. Besides a dense
// key range from 0, the pool holds keys searched out to share the first
// and the last home slot of every table the run reaches, so probe runs
// pile up, wrap past the table's end and lose entries from their
// middle, and keys on both sides of the packed bound: the largest
// packable blocks, the smallest overflow ones, 2^58-1 (the largest
// block at 64-byte lines) and 2^64-1. The molecule table has 2^17
// entries, so slots carry an 18-bit ID field, and the holders include
// its first and last IDs. The first half of the run mostly inserts, so
// the table grows while overflow entries are live; the second mostly
// deletes.
func TestBlockMapMirrorsMap(t *testing.T) {
	const (
		ops      = 200_000
		logSlots = 13 // the largest table the population reaches
	)
	src := rng.New(0xb10c)
	mols := synthMols(1<<17, 0, 1, 1<<16, 1<<17-1)
	bm := newBlockMap(mols)
	bound := bm.maxPacked
	if want := uint64(1)<<(64-bits.Len(1<<17)) - 2; bound != want { // an 18-bit ID field
		t.Fatalf("maxPacked = %#x, want %#x", bound, want)
	}
	var keys []uint64
	for k := uint64(0); k < 4096; k++ {
		keys = append(keys, k)
	}
	keys = append(keys, homedKeys(src, 64, logSlots, 0, bound)...)
	keys = append(keys, homedKeys(src, 64, logSlots, 1<<logSlots-1, bound)...)
	for k := uint64(0); k < 32; k++ {
		keys = append(keys, bound-k, bound+1+k)
	}
	keys = append(keys, 1<<58-1, 1<<58-2, ^uint64(0))
	packed := func(k uint64) bool { return k <= bound }

	oracle := make(map[uint64]*Molecule)
	holders := []*Molecule{mols[0], mols[1], mols[1<<16], mols[1<<17-1]}
	sameEntries := func(i int) {
		t.Helper()
		seen, over := 0, 0
		bm.each(func(k uint64, m *Molecule) {
			if oracle[k] != m {
				t.Fatalf("op %d: each yielded %d → %v, oracle %v", i, k, m, oracle[k])
			}
			seen++
		})
		if seen != len(oracle) {
			t.Fatalf("op %d: each visited %d entries, oracle holds %d", i, seen, len(oracle))
		}
		for k := range oracle {
			if !packed(k) {
				over++
			}
		}
		if len(bm.overflow) != over || bm.live != len(oracle)-over {
			t.Fatalf("op %d: %d packed and %d overflow entries, oracle has %d and %d",
				i, bm.live, len(bm.overflow), len(oracle)-over, over)
		}
	}
	var wrapped bool
	deletes, midRun, overDeletes, grewOver := 0, 0, 0, 0
	for i := 0; i < ops; i++ {
		k := keys[src.Intn(len(keys))]
		m := holders[src.Intn(len(holders))]
		op := src.Intn(10)
		switch {
		case op == 0:
			if bm.get(k) != oracle[k] {
				t.Fatalf("op %d: get(%d) = %v, oracle %v", i, k, bm.get(k), oracle[k])
			}
		case (i < ops/2) == (op <= 7):
			slots := len(bm.slots)
			bm.set(k, m)
			oracle[k] = m
			if len(bm.slots) > slots && len(bm.overflow) > 0 {
				grewOver++
			}
		default:
			want := oracle[k] == m
			if want && packed(k) {
				slot, _ := bm.find(k)
				if bm.slots[(slot+1)&uint64(len(bm.slots)-1)] != 0 {
					midRun++
				}
			}
			if bm.remove(k, m) != want {
				t.Fatalf("op %d: conditional remove of %d disagreed", i, k)
			}
			if want {
				delete(oracle, k)
				deletes++
				if !packed(k) {
					overDeletes++
				}
			}
			if bm.get(k) != oracle[k] {
				t.Fatalf("op %d: get(%d) after remove = %v, oracle %v", i, k, bm.get(k), oracle[k])
			}
		}
		if bm.size() != len(oracle) {
			t.Fatalf("op %d: size %d, oracle %d", i, bm.size(), len(oracle))
		}
		if i%1000 == 999 {
			wrapped = wrapped || wrappedRun(&bm)
			sameEntries(i)
			for _, k := range keys {
				if bm.get(k) != oracle[k] {
					t.Fatalf("op %d: get(%d) = %v, oracle %v", i, k, bm.get(k), oracle[k])
				}
			}
		}
	}
	sameEntries(ops)
	if len(bm.slots) < 1<<logSlots || !wrapped || deletes < 1000 || midRun < 1000 ||
		overDeletes < 100 || grewOver == 0 {
		t.Errorf("run did not exercise the table: %d slots (want %d), wrapped=%v, deletes=%d, "+
			"mid-run deletes=%d, overflow deletes=%d, growths with overflow live=%d",
			len(bm.slots), 1<<logSlots, wrapped, deletes, midRun, overDeletes, grewOver)
	}
}
