package coherence

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFirstReadIsExclusive(t *testing.T) {
	d := NewDirectory()
	act, _ := d.Read(1, 0)
	if act.NewState != Exclusive || act.InvalidateMask != 0 || act.WritebackFrom != -1 {
		t.Errorf("first read = %+v", act)
	}
	if d.StateOf(1, 0) != Exclusive {
		t.Errorf("state = %v, want E", d.StateOf(1, 0))
	}
}

func TestSecondReaderSharesAndDowngrades(t *testing.T) {
	d := NewDirectory()
	d.Read(1, 0) // E
	act, _ := d.Read(1, 1)
	if act.NewState != Shared {
		t.Errorf("second reader state = %v", act.NewState)
	}
	if act.DowngradeMask != 1<<0 {
		t.Errorf("downgrade mask = %b, want owner bit", act.DowngradeMask)
	}
	if act.WritebackFrom != -1 {
		t.Error("clean E copy should not write back")
	}
	if d.StateOf(1, 0) != Shared || d.StateOf(1, 1) != Shared {
		t.Errorf("states = %v, %v, want S, S", d.StateOf(1, 0), d.StateOf(1, 1))
	}
}

func TestReadFromModifiedWritesBack(t *testing.T) {
	d := NewDirectory()
	d.Write(1, 0) // M
	act, _ := d.Read(1, 1)
	if act.WritebackFrom != 0 {
		t.Errorf("WritebackFrom = %d, want 0", act.WritebackFrom)
	}
	if act.DowngradeMask != 1<<0 {
		t.Errorf("DowngradeMask = %b", act.DowngradeMask)
	}
	if d.StateOf(1, 0) != Shared {
		t.Errorf("former owner state = %v, want S", d.StateOf(1, 0))
	}
	if d.Stats().Writebacks != 1 || d.Stats().Downgrades != 1 {
		t.Errorf("stats = %+v", d.Stats())
	}
}

func TestSilentEToMUpgrade(t *testing.T) {
	d := NewDirectory()
	d.Read(1, 0) // E
	act, _ := d.Write(1, 0)
	if act.NewState != Modified || act.InvalidateMask != 0 {
		t.Errorf("E->M upgrade = %+v", act)
	}
	if d.Stats().SilentUpgrades != 1 {
		t.Errorf("silent upgrades = %d", d.Stats().SilentUpgrades)
	}
	if d.StateOf(1, 0) != Modified {
		t.Errorf("state = %v, want M", d.StateOf(1, 0))
	}
}

func TestSToMInvalidatesSharers(t *testing.T) {
	d := NewDirectory()
	d.Read(1, 0)
	d.Read(1, 1)
	d.Read(1, 2) // S in 0,1,2
	act, _ := d.Write(1, 1)
	if act.InvalidateMask != (1<<0 | 1<<2) {
		t.Errorf("invalidate mask = %b, want caches 0 and 2", act.InvalidateMask)
	}
	if d.Stats().OwnershipUpgrades != 1 || d.Stats().Invalidations != 2 {
		t.Errorf("stats = %+v", d.Stats())
	}
	if d.StateOf(1, 0) != Invalid || d.StateOf(1, 2) != Invalid || d.StateOf(1, 1) != Modified {
		t.Error("post-upgrade states wrong")
	}
}

func TestWriteMissFromModifiedOwner(t *testing.T) {
	d := NewDirectory()
	d.Write(1, 0) // M in 0
	act, _ := d.Write(1, 1)
	if act.InvalidateMask != 1<<0 || act.WritebackFrom != 0 {
		t.Errorf("write-miss action = %+v", act)
	}
	if d.StateOf(1, 0) != Invalid || d.StateOf(1, 1) != Modified {
		t.Error("ownership did not transfer")
	}
}

func TestEvictForgetsSharer(t *testing.T) {
	d := NewDirectory()
	d.Write(1, 0)
	d.Evict(1, 0)
	if d.StateOf(1, 0) != Invalid {
		t.Error("evicted copy still tracked")
	}
	if d.Lines() != 0 {
		t.Error("empty entry not reclaimed")
	}
	// A later read is a fresh Exclusive.
	if act, _ := d.Read(1, 2); act.NewState != Exclusive {
		t.Errorf("post-evict read = %+v", act)
	}
	// Evicting an untracked line is a no-op.
	d.Evict(99, 3)
}

func TestRepeatedAccessIsQuiet(t *testing.T) {
	d := NewDirectory()
	d.Write(1, 0)
	for i := 0; i < 5; i++ {
		act, _ := d.Read(1, 0)
		if act.InvalidateMask != 0 || act.DowngradeMask != 0 || act.WritebackFrom != -1 {
			t.Errorf("self read produced traffic: %+v", act)
		}
		if act.NewState != Modified {
			t.Errorf("self read state = %v, want M retained", act.NewState)
		}
	}
}

func TestCacheIDBounds(t *testing.T) {
	d := NewDirectory()
	for _, id := range []int{-1, MaxCaches, MaxCaches + 7} {
		if _, err := d.Read(1, id); err == nil {
			t.Errorf("Read with cache id %d accepted", id)
		}
		if _, err := d.Write(1, id); err == nil {
			t.Errorf("Write with cache id %d accepted", id)
		}
		if err := d.Evict(1, id); err == nil {
			t.Errorf("Evict with cache id %d accepted", id)
		}
	}
	// Rejected requests must not perturb state or counters.
	if d.Lines() != 0 {
		t.Errorf("rejected requests created %d directory entries", d.Lines())
	}
	if s := d.Stats(); s.Reads != 0 || s.Writes != 0 {
		t.Errorf("rejected requests counted: %+v", s)
	}
	// The boundary IDs themselves work.
	if _, err := d.Read(1, 0); err != nil {
		t.Errorf("Read from cache 0: %v", err)
	}
	if _, err := d.Write(2, MaxCaches-1); err != nil {
		t.Errorf("Write from cache %d: %v", MaxCaches-1, err)
	}
}

// mesiModel is the shadow the property tests drive beside a Directory:
// every cache's state for each line, changed only by the actions the
// directory returns.
type mesiModel map[uint64][]State

// step applies one operation (0 read, 1 write, 2 evict) to d and the
// model, and reports whether the line still satisfies the protocol
// invariants:
//  1. at most one cache in M or E;
//  2. if any cache is in S, no cache is in M or E;
//  3. StateOf agrees with the model for every cache.
func (m mesiModel) step(d *Directory, kind int, line uint64, c int) bool {
	st := m[line]
	if st == nil {
		st = make([]State, MaxCaches)
		m[line] = st
	}
	if kind == 2 {
		d.Evict(line, c)
		st[c] = Invalid
	} else {
		var act Action
		if kind == 0 {
			act, _ = d.Read(line, c)
		} else {
			act, _ = d.Write(line, c)
		}
		for cc := range st {
			if act.InvalidateMask&(1<<uint(cc)) != 0 {
				st[cc] = Invalid
			}
			if act.DowngradeMask&(1<<uint(cc)) != 0 {
				st[cc] = Shared
			}
		}
		st[c] = act.NewState
	}
	owners, sharers := 0, 0
	for cc, s := range st {
		switch s {
		case Modified, Exclusive:
			owners++
		case Shared:
			sharers++
		}
		if d.StateOf(line, cc) != s {
			return false
		}
	}
	return owners <= 1 && (owners == 0 || sharers == 0)
}

// sameLines reports whether d tracks exactly the lines some cache of
// the model holds, with the model's sharer sets: Lines() counts them and
// EachLine visits each exactly once.
func (m mesiModel) sameLines(d *Directory) bool {
	live := map[uint64]uint16{}
	for line, st := range m {
		var mask uint16
		for c, s := range st {
			if s != Invalid {
				mask |= 1 << uint(c)
			}
		}
		if mask != 0 {
			live[line] = mask
		}
	}
	if d.Lines() != len(live) {
		return false
	}
	seen := map[uint64]bool{}
	ok := true
	d.EachLine(func(li LineInfo) {
		if seen[li.Line] || live[li.Line] != li.Sharers {
			ok = false
		}
		seen[li.Line] = true
	})
	return ok && len(seen) == len(live)
}

// wideLines returns 4096 distinct line addresses: 0, the top of the
// address space, a dense line-aligned run from 0 and random 64-bit
// values (nearly all of them high).
func wideLines(r *rand.Rand) []uint64 {
	seen := map[uint64]bool{}
	var out []uint64
	add := func(v uint64) {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	add(^uint64(0))
	add(1 << 63)
	for k := uint64(0); len(out) < 2048; k++ {
		add(k * 64)
	}
	for len(out) < 4096 {
		add(r.Uint64())
	}
	return out
}

// wrapped reports whether some tracked line sits below its home slot,
// i.e. its probe chain wrapped past the end of the table.
func wrapped(d *Directory) bool {
	for i, s := range d.slots {
		if s.e.sharers != 0 && d.home(s.line) > uint64(i) {
			return true
		}
	}
	return false
}

// Protocol invariants under random operation sequences, checked against
// the shadow model after every operation.
func TestMESIInvariantsProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		d := NewDirectory()
		m := mesiModel{}
		for _, op := range ops {
			if !m.step(d, int(op>>6)%3, uint64(op%8), int(op>>3)%4) {
				return false
			}
		}
		return m.sameLines(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}

	// The wide variant spreads 4096 lines over the address space, so
	// the line table grows, probe chains wrap past its end, and evicts
	// delete lines out of the middle of chains. The first half of each
	// run mostly reads and writes; the second mostly evicts.
	t.Run("wide", func(t *testing.T) {
		const ops, caches = 24000, 4
		var grew, wrapSeen bool
		deletes := 0
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			lines := wideLines(r)
			d := NewDirectory()
			m := mesiModel{}
			for i := 0; i < ops; i++ {
				kind := r.Intn(10)
				switch {
				case i < ops/2 && kind < 8, i >= ops/2 && kind < 2:
					kind %= 2
				default:
					kind = 2
				}
				n := d.Lines()
				if !m.step(d, kind, lines[r.Intn(len(lines))], r.Intn(caches)) {
					return false
				}
				if d.Lines() < n {
					deletes++
				}
				if i%1000 == 999 {
					wrapSeen = wrapSeen || wrapped(d)
					if !m.sameLines(d) {
						return false
					}
				}
			}
			grew = grew || len(d.slots) >= 4096
			return m.sameLines(d)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
			t.Error(err)
		}
		if !grew || !wrapSeen || deletes < 1000 {
			t.Errorf("wide runs did not exercise the table: grew=%v wrapped=%v deletes=%d", grew, wrapSeen, deletes)
		}
	})
}

func TestStateString(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" ||
		Exclusive.String() != "E" || Modified.String() != "M" {
		t.Error("state names wrong")
	}
}
