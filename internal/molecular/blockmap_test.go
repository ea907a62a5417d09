package molecular

// Direct tests of the open-addressed block → molecule table. The
// differential oracle and the index property tests exercise it through
// the cache; these pin the table's own contract — including the states
// a full simulation may take long to reach (delete churn at a fixed
// population, probe runs that share a home slot and wrap past the
// table's end, key 0, conditional removal against the wrong holder).

import (
	"testing"

	"molcache/internal/rng"
)

func TestBlockMapBasics(t *testing.T) {
	var bm blockMap
	a, b := &Molecule{id: 1}, &Molecule{id: 2}

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
	var bm blockMap
	m := &Molecule{id: 3}
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
	if cap := len(bm.entries); cap > 1024 {
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

// homedKeys searches out n distinct nonzero keys whose home slot is
// slot in every table of up to 1<<logSlots entries. slot must be 0 or
// the last slot: the home in a smaller table is the top bits of the
// home in this one, so both ends stay ends as the table grows.
func homedKeys(src *rng.Source, n int, logSlots uint, slot uint64) []uint64 {
	seen := map[uint64]bool{}
	var out []uint64
	for len(out) < n {
		k := src.Uint64()
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
	for i, e := range bm.entries {
		if e.val != nil && bm.home(e.key) > uint64(i) {
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
// middle. The first half of the run mostly inserts, the second mostly
// deletes.
func TestBlockMapMirrorsMap(t *testing.T) {
	const (
		ops      = 200_000
		logSlots = 13 // the largest table the population reaches
	)
	src := rng.New(0xb10c)
	var keys []uint64
	for k := uint64(0); k < 4096; k++ {
		keys = append(keys, k)
	}
	keys = append(keys, homedKeys(src, 64, logSlots, 0)...)
	keys = append(keys, homedKeys(src, 64, logSlots, 1<<logSlots-1)...)

	var bm blockMap
	oracle := make(map[uint64]*Molecule)
	mols := []*Molecule{{id: 0}, {id: 1}, {id: 2}}
	sameEntries := func(i int) {
		t.Helper()
		seen := 0
		bm.each(func(k uint64, m *Molecule) {
			if oracle[k] != m {
				t.Fatalf("op %d: each yielded %d → %v, oracle %v", i, k, m, oracle[k])
			}
			seen++
		})
		if seen != len(oracle) {
			t.Fatalf("op %d: each visited %d entries, oracle holds %d", i, seen, len(oracle))
		}
	}
	var wrapped bool
	deletes, midRun := 0, 0
	for i := 0; i < ops; i++ {
		k := keys[src.Intn(len(keys))]
		m := mols[src.Intn(len(mols))]
		op := src.Intn(10)
		switch {
		case op == 0:
			if bm.get(k) != oracle[k] {
				t.Fatalf("op %d: get(%d) = %v, oracle %v", i, k, bm.get(k), oracle[k])
			}
		case (i < ops/2) == (op <= 7):
			bm.set(k, m)
			oracle[k] = m
		default:
			want := oracle[k] == m
			if want {
				slot, _ := bm.find(k)
				if bm.entries[(slot+1)&uint64(len(bm.entries)-1)].val != nil {
					midRun++
				}
			}
			if bm.remove(k, m) != want {
				t.Fatalf("op %d: conditional remove of %d disagreed", i, k)
			}
			if want {
				delete(oracle, k)
				deletes++
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
	if len(bm.entries) < 1<<logSlots || !wrapped || deletes < 1000 || midRun < 1000 {
		t.Errorf("run did not exercise the table: %d slots (want %d), wrapped=%v, deletes=%d, mid-run deletes=%d",
			len(bm.entries), 1<<logSlots, wrapped, deletes, midRun)
	}
}
