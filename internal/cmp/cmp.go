// Package cmp is the repository's SESC substitute: a trace-level chip
// multiprocessor model. N cores each run a workload generator through a
// private write-back L1 data cache; L1 misses go to a shared L2 (any
// engine.Cache — a traditional cache for the paper's baselines and
// Table 1, a molecular cache for the proposal). A directory-based MESI
// protocol (internal/coherence) keeps the private L1s coherent, and the system can
// capture the L1-miss reference stream — the trace the paper feeds into
// its modified Dinero.
package cmp

import (
	"fmt"
	"math"
	"math/bits"

	"molcache/internal/addr"
	"molcache/internal/cache"
	"molcache/internal/coherence"
	"molcache/internal/engine"
	"molcache/internal/stats"
	"molcache/internal/trace"
	"molcache/internal/workload"
)

// The fixed core model. Every core has a private 16 KB 4-way L1 data
// cache with 64 B lines (a typical 2006 L1-D) and is in-order with one
// outstanding miss, a fair model for 2006-era CMPs. A reference costs
// l1HitCycles on an L1 hit, engine.L2HitCycles on an L1 miss that hits
// the L2 and engine.MemoryCycles on an L2 miss. An L2-miss-bound
// application therefore issues references far more slowly than an
// L1-resident one — the throttling that shapes the paper's Table 1 (art
// survives next to mcf because mcf, stalled on memory, cannot flood the
// shared L2 with evictions).
const (
	l1Size      = 16 * addr.KB
	l1Ways      = 4
	lineSize    = 64
	l1HitCycles = 1
)

// wheelSlots is the size of Step's timing wheel. Every core's next
// issue cycle lies within the longest latency of the earliest one's,
// so with more slots than that latency no two pending cycles share a
// slot.
const wheelSlots = 256

// The wheel must cover the longest latency a reference can charge, and
// a slot's uint16 core mask must hold every core.
var (
	_ [wheelSlots - 1 - max(l1HitCycles, engine.L2HitCycles, engine.MemoryCycles)]struct{}
	_ [16 - coherence.MaxCaches]struct{}
)

// asidShift places a mix application's address space: MixApp bases
// ASID a at a<<asidShift, so its window is [a<<36, (a+1)<<36).
const asidShift = 36

// errTooManyCores rejects a core beyond coherence.MaxCaches, in AddCore
// and in RunMix alike.
var errTooManyCores = fmt.Errorf("cmp: at most %d cores supported", coherence.MaxCaches)

// Config parameterizes the CMP substrate.
type Config struct {
	// CaptureL1Misses records the L1-miss stream for replay.
	CaptureL1Misses bool
}

// CoherenceStats counts MESI protocol events among the private L1s.
type CoherenceStats struct {
	// Invalidations is the number of L1 copies killed by remote writes.
	Invalidations uint64
	// Interventions is the number of misses supplied by a peer L1
	// holding a dirty copy (which writes back first).
	Interventions uint64
	// WritebacksForced is the number of dirty-copy writebacks forced by
	// the protocol.
	WritebacksForced uint64
	// Downgrades is the number of M/E copies demoted to Shared by
	// remote reads.
	Downgrades uint64
	// SilentUpgrades counts traffic-free E -> M transitions.
	SilentUpgrades uint64
}

// core is one processor: a workload, an ASID, a private L1, and the
// cycle at which its next reference can issue.
type core struct {
	id      uint8
	asid    uint16
	gen     workload.Generator
	l1      *cache.Cache
	readyAt uint64
	cycles  uint64 // total stall+issue cycles consumed
	refs    uint64
}

// System is the CMP: cores round-robin into the shared L2.
type System struct {
	cfg   Config
	cores []*core
	l2    engine.Cache

	// dir is the MESI directory. It is a conservative superset of the
	// truth: L1 replacements are silent (the L1 model does not report
	// evicted addresses), so the directory may list sharers that have
	// already dropped a line; invalidating or downgrading an absent
	// line is a no-op and the hit/miss behaviour stays exact.
	dir *coherence.Directory

	captured []trace.Ref
	issued   uint64

	// run is the core Step issues from next: the earliest, lowest ID on
	// ties. The other cores wait in the timing wheel, and head is the
	// earliest of them (idle, a sentinel never ready, when none wait).
	run, head *core
	idle      core

	// wheel is the ready-core timing wheel: wheel[t%wheelSlots] is the
	// mask of waiting cores (bit i = core i) whose next reference issues
	// at cycle t. occupied has bit j set while wheel[j] is non-empty, and
	// cur is head's slot, so finding the next head takes a few
	// TrailingZeros64 calls however many idle cycles lie between.
	wheel    [wheelSlots]uint16
	occupied [wheelSlots / 64]uint64
	cur      uint

	// OnL2Access, when set, observes every L2 access (the resize
	// controller's Tick hooks in here).
	OnL2Access func(trace.Ref, engine.Result)
}

// New builds a CMP over the shared L2.
func New(l2 engine.Cache, cfg Config) *System {
	s := &System{
		cfg: cfg,
		l2:  l2,
		dir: coherence.NewDirectory(),
	}
	s.idle.readyAt = math.MaxUint64
	s.head = &s.idle
	return s
}

// AddCore attaches a core running gen under asid. Core IDs are assigned
// in order; at most coherence.MaxCaches cores, all added before the
// first Step.
func (s *System) AddCore(asid uint16, gen workload.Generator) error {
	if len(s.cores) >= coherence.MaxCaches {
		return errTooManyCores
	}
	if s.issued > 0 {
		return fmt.Errorf("cmp: cores must be added before the first Step")
	}
	c := &core{
		id:   uint8(len(s.cores)),
		asid: asid,
		gen:  gen,
		l1:   cache.MustNew(cache.Config{Size: l1Size, Ways: l1Ways, LineSize: lineSize}),
	}
	s.cores = append(s.cores, c)
	if s.run == nil {
		s.run = c
	} else {
		s.schedule(c)
		s.head = s.earliest()
	}
	return nil
}

// MixApp builds application i of a workload mix by the recipe every mix
// in the repository follows: it runs as ASID i+1, its address space
// starts at ASID<<36 so applications never collide, and its generator
// is seeded seed+ASID*1000.
func MixApp(i int, name string, seed uint64) (uint16, workload.Generator, error) {
	asid := uint16(i + 1)
	gen, err := workload.New(name, uint64(asid)<<asidShift, seed+uint64(asid)*1000)
	return asid, gen, err
}

// AddMix attaches one core per application of names, in order, each
// built by MixApp.
func (s *System) AddMix(names []string, seed uint64) error {
	for i, name := range names {
		asid, gen, err := MixApp(i, name, seed)
		if err != nil {
			return err
		}
		if err := s.AddCore(asid, gen); err != nil {
			return err
		}
	}
	return nil
}

// CaptureMix runs the mix for refs processor references over the
// paper's 1 MB 4-way shared L2 and returns the captured L1-miss stream.
// Which lines miss the L1 does not depend on the L2, but the
// interleaving does (cores stall on L2 misses), so every capture uses
// this one reference L2 as its timing substrate. It runs on RunMix, so
// the stream is the one a System built by AddMix captures.
func CaptureMix(names []string, refs int, seed uint64) ([]trace.Ref, error) {
	l2 := cache.MustNew(cache.Config{Size: addr.MB, Ways: 4, LineSize: lineSize})
	return RunMix(l2, names, refs, seed, true)
}

// L2 returns the shared cache.
func (s *System) L2() engine.Cache { return s.l2 }

// L1Ledger returns per-ASID L1 hit/miss counts: the sum of the cores'
// private L1 ledgers, each of which records every reference its core
// issues under the core's ASID. It is built on each call, so changing
// it does not affect the system.
func (s *System) L1Ledger() *stats.Ledger {
	var sum stats.Ledger
	for _, c := range s.cores {
		l := c.l1.Ledger()
		sum.Total.Add(l.Total)
		for _, asid := range l.ASIDs() {
			sum.AppRef(asid).Add(l.App(asid))
		}
	}
	return &sum
}

// Coherence returns protocol event counts.
func (s *System) Coherence() CoherenceStats {
	ds := s.dir.Stats()
	return CoherenceStats{
		Invalidations:    ds.Invalidations,
		Interventions:    ds.Writebacks,
		WritebacksForced: ds.Writebacks,
		Downgrades:       ds.Downgrades,
		SilentUpgrades:   ds.SilentUpgrades,
	}
}

// Directory exposes the MESI directory for inspection (the invariant
// checker reads its per-line state).
func (s *System) Directory() *coherence.Directory { return s.dir }

// EachL1Line calls fn for every resident line of every core's private
// L1, with the core ID, the line-aligned address and the dirty bit.
// Read-only; the invariant checker cross-checks this against the
// directory's sharer sets.
func (s *System) EachL1Line(fn func(coreID int, a uint64, dirty bool)) {
	for _, c := range s.cores {
		id := int(c.id)
		c.l1.EachLine(func(a uint64, _ uint16, dirty bool) {
			fn(id, a, dirty)
		})
	}
}

// Captured returns the recorded L1-miss trace (nil unless enabled).
func (s *System) Captured() []trace.Ref { return s.captured }

// Issued returns the total references issued by all cores.
func (s *System) Issued() uint64 { return s.issued }

// Step issues one reference from the next ready core (the core with the
// smallest readyAt cycle, lowest ID on ties) and returns its core ID.
// Identical cores interleave round-robin; a miss-bound core naturally
// falls behind by its stall cycles. The pick takes constant time: the
// core that just issued runs again unless the earliest waiting core
// (head) is now ahead of it, and then the two trade places and the
// timing wheel names the next head. Step panics with a nil dereference
// on a system with no cores (Run issues nothing there).
func (s *System) Step() uint8 {
	c := s.run
	s.issue(c)
	if h := s.head; c.readyAt > h.readyAt || c.readyAt == h.readyAt && c.id > h.id {
		s.schedule(c)
		s.unschedule(h)
		s.run = h
		s.head = s.earliest()
	}
	return c.id
}

// earliest returns the earliest waiting core, lowest ID on ties, or
// idle when none waits. The first occupied wheel slot at or after cur,
// wrapping around, holds it; idle cycles are skipped a 64-slot word at
// a time.
func (s *System) earliest() *core {
	w := s.cur / 64
	m := s.occupied[w] >> (s.cur % 64) << (s.cur % 64)
	for n := 0; m == 0 && n < len(s.occupied); n++ {
		w = (w + 1) % uint(len(s.occupied))
		m = s.occupied[w]
	}
	if m == 0 {
		return &s.idle
	}
	s.cur = w*64 + uint(bits.TrailingZeros64(m))
	return s.cores[bits.TrailingZeros16(s.wheel[s.cur])]
}

// schedule files c in the wheel slot of its readyAt cycle.
func (s *System) schedule(c *core) {
	slot := uint(c.readyAt % wheelSlots)
	s.wheel[slot] |= 1 << c.id
	s.occupied[slot/64] |= 1 << (slot % 64)
}

// unschedule takes c out of the wheel slot of its readyAt cycle.
func (s *System) unschedule(c *core) {
	slot := uint(c.readyAt % wheelSlots)
	if s.wheel[slot] &^= 1 << c.id; s.wheel[slot] == 0 {
		s.occupied[slot/64] &^= 1 << (slot % 64)
	}
}

// Run issues total references across the cores under the timing model.
func (s *System) Run(total int) {
	if len(s.cores) == 0 {
		return
	}
	for i := 0; i < total; i++ {
		s.Step()
	}
}

// Cycle returns the cycle count of the furthest-advanced core.
func (s *System) Cycle() uint64 {
	var max uint64
	for _, c := range s.cores {
		if c.readyAt > max {
			max = c.readyAt
		}
	}
	return max
}

// CoreCPI returns cycles per reference for asid: the cycles of every
// core running the ASID divided by their references, or 0 when no such
// core has issued any.
func (s *System) CoreCPI(asid uint16) float64 {
	var cycles, refs uint64
	for _, c := range s.cores {
		if c.asid == asid {
			cycles += c.cycles
			refs += c.refs
		}
	}
	if refs == 0 {
		return 0
	}
	return float64(cycles) / float64(refs)
}

// issue pushes one reference from core c through L1, coherence and L2.
func (s *System) issue(c *core) {
	acc := c.gen.Next()
	ref := trace.Ref{Addr: acc.Addr, ASID: c.asid, CPU: c.id, Kind: trace.Read}
	if acc.Write {
		ref.Kind = trace.Write
	}
	s.issued++
	line := addr.LineAlign(ref.Addr, lineSize)

	hit, wasDirty, _, _ := c.l1.Probe(ref)
	c.refs++

	// Drive the MESI directory: a write consults it unless it hit a
	// line that was already dirty (a write hit on a Shared or Exclusive
	// line still needs an ownership or silent upgrade); read hits are
	// quiet (the holder is already at least Shared). A dirty L1 copy
	// means the directory already records this core as the line's dirty
	// owner and sole sharer, so that write would return an empty action
	// and change nothing but the directory's Writes count.
	// Core IDs are bounded by AddCore, so the directory never rejects
	// them; a rejection would mean internal corruption, and skipping the
	// coherence actions (never applying a bogus mask) is the safe
	// degradation.
	if ref.Kind == trace.Write {
		if !wasDirty {
			if act, err := s.dir.Write(line, int(c.id)); err == nil {
				s.apply(act, line)
			}
		}
	} else if !hit {
		if act, err := s.dir.Read(line, int(c.id)); err == nil {
			s.apply(act, line)
		}
	}

	if hit {
		c.cycles += l1HitCycles
		c.readyAt += l1HitCycles
		return
	}

	if s.cfg.CaptureL1Misses {
		s.captured = append(s.captured, ref)
	}
	l2res := s.l2.Access(ref)
	if s.OnL2Access != nil {
		s.OnL2Access(ref, l2res)
	}
	lat := uint64(engine.L2HitCycles)
	if !l2res.Hit {
		lat = engine.MemoryCycles
	}
	c.cycles += lat
	c.readyAt += lat
}

// apply performs the cache-side effects of a directory action:
// invalidations and downgrades on the peer L1s.
func (s *System) apply(act coherence.Action, line uint64) {
	if act.InvalidateMask == 0 && act.DowngradeMask == 0 {
		return
	}
	for i, c := range s.cores {
		bit := uint16(1) << uint(i)
		if act.InvalidateMask&bit != 0 {
			c.l1.Invalidate(line)
		}
		if act.DowngradeMask&bit != 0 {
			c.l1.Downgrade(line)
		}
	}
}
