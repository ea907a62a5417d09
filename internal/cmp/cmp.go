// Package cmp is the repository's SESC substitute: a trace-level chip
// multiprocessor model. N cores each run a workload generator through a
// private LRU L1 data cache, modelled as a tag-only filter since only its
// hits and misses reach the rest of the system; L1 misses go to a shared
// L2 (any engine.Cache — a traditional cache for the paper's baselines
// and Table 1, a molecular cache for the proposal), and the system can
// capture the L1-miss reference stream — the trace the paper feeds into
// its modified Dinero. Every core owns the address window of its ASID,
// as each application of the paper's multiprogrammed mixes owns its
// data, so no line is ever in two L1s and the L1s need no coherence.
package cmp

import (
	"fmt"
	"math"

	"molcache/internal/addr"
	"molcache/internal/cache"
	"molcache/internal/engine"
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

// maxCores bounds a system's cores: the merge keys a core's next miss
// by its issue cycle with the core ID in the low four bits.
const maxCores = 16

// asidShift places a core's address window: the core running ASID a
// owns [a<<asidShift, (a+1)<<asidShift), and MixApp bases ASID a at
// a<<asidShift.
const asidShift = 36

var errTooManyCores = fmt.Errorf("cmp: at most %d cores supported", maxCores)

// Config parameterizes the CMP substrate.
type Config struct {
	// CaptureL1Misses records the L1-miss stream for replay.
	CaptureL1Misses bool
}

// System is the CMP: cores whose L1 misses share one L2.
type System struct {
	cfg   Config
	l2    engine.Cache
	cores []core

	// captured is the L1-miss stream of the Runs so far. A Run records
	// its misses in byte blocks of captureBlock bytes (block is the one
	// being filled), each as a header byte and the varint of its
	// address minus base[core], the core's last captured address, about
	// 4 bytes against a trace.Ref's 16. blockRefs counts them, and flush
	// decodes them onto captured once, when Run returns, so the stream
	// is held once at its exact size rather than twice.
	captured  []trace.Ref
	blocks    [][]byte
	block     []byte
	blockRefs int
	base      [maxCores]uint64

	// keys[i] is core i's next event as (issue cycle)<<4 | i, so the
	// smallest key is the next miss in (issue cycle, core ID) order;
	// math.MaxUint64 while the core is parked: added but not yet run,
	// or with no miss left in the references its budget allows.
	keys [maxCores]uint64
	// target is the processor references all Runs so far have asked
	// for; done counts those up to each core's last merged miss, and
	// pending the L1 hits the cores have waiting after it.
	target, done, pending uint64

	// OnL2Access, when set, observes every L2 access (the resize
	// controller's Tick hooks in here).
	OnL2Access func(trace.Ref, engine.Result)
}

// New builds a CMP over the shared L2.
func New(l2 engine.Cache, cfg Config) *System {
	return &System{cfg: cfg, l2: l2}
}

// AddCore attaches a core running gen under asid. Core IDs are assigned
// in order; at most 16 cores, each with its own ASID, all added before
// the first Run. gen must keep to the ASID's window [asid<<36,
// (asid+1)<<36); Run fails with a *WindowError when it leaves it.
func (s *System) AddCore(asid uint16, gen workload.Generator) error {
	if len(s.cores) >= maxCores {
		return errTooManyCores
	}
	if s.target > 0 {
		return fmt.Errorf("cmp: cores must be added before the first Run")
	}
	for i := range s.cores {
		if s.cores[i].asid == asid {
			return fmt.Errorf("cmp: ASID %d already runs on core %d", asid, i)
		}
	}
	s.keys[len(s.cores)] = math.MaxUint64
	s.cores = append(s.cores, core{
		asid: asid,
		gen:  gen,
		buf:  make([]event, 0, chunkEvents),
	})
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
// paper's 1 MB 4-way shared L2 and returns the captured L1-miss stream,
// the exact-size slice of Captured. Which lines miss the L1 does not
// depend on the L2, but the interleaving does (cores stall on L2
// misses), so every capture uses this one reference L2 as its timing
// substrate.
func CaptureMix(names []string, refs int, seed uint64) ([]trace.Ref, error) {
	s := New(cache.MustNew(cache.Config{Size: addr.MB, Ways: 4, LineSize: lineSize}), Config{CaptureL1Misses: true})
	if err := s.AddMix(names, seed); err != nil {
		return nil, err
	}
	if err := s.Run(refs); err != nil {
		return nil, err
	}
	return s.Captured(), nil
}

// Captured returns the L1-miss stream of the Runs so far in issue order
// (nil unless enabled), as a slice whose length is its capacity. A Run
// holds its misses at about 4 bytes each and, as it returns, decodes
// them after a copy of the earlier Runs' stream into one slice of the
// new length, so a capture in one Run peaks at about 20 bytes per
// captured reference.
func (s *System) Captured() []trace.Ref { return s.captured }

// WindowError reports a reference outside its core's ASID window, which
// could touch a line of another core's. Run stops at the first one in
// issue order.
type WindowError struct {
	// Core is the issuing core's ID and ASID its address space.
	Core int
	ASID uint16
	// Addr is the offending byte address.
	Addr uint64
}

// Error implements error.
func (e *WindowError) Error() string {
	lo := uint64(e.ASID) << asidShift
	return fmt.Sprintf("cmp: core %d (ASID %d) issued address %#x outside its window [%#x, %#x)",
		e.Core, e.ASID, e.Addr, lo, lo+1<<asidShift)
}

// Run issues total more processor references across the cores under
// the timing model: the core whose next reference issues first (lowest
// ID on ties) goes next, its L1 filters the reference, and a miss goes
// to the L2 (and the capture) and stalls the core for the L2's answer.
// Identical cores interleave round-robin; a miss-bound core falls behind
// by its stall cycles. OnL2Access runs after every L2 access. Run stops
// at exactly total references, or with a *WindowError at the first
// reference outside its core's window; it issues nothing on a system
// with no cores.
//
// It runs in two stages, the way the paper splits its CMP (SESC filters
// each application through its L1, and Dinero sees only the L1-miss
// stream). Stage 1 drives one core's generator through its private L1
// on its own and writes each L1 miss, with the count of L1 hits before
// it, into a bounded chunk the core reuses. Stage 2 merges the cores'
// misses through the L2 in (issue cycle, core ID) order, the order the
// references issue in. The split is exact because a core's L1 sees only
// its own references.
func (s *System) Run(total int) error {
	if total <= 0 || len(s.cores) == 0 {
		return nil
	}
	s.target += uint64(total)
	for i := range s.cores {
		c := &s.cores[i]
		c.left += total // no core issues more than the run does
		if s.keys[i] == math.MaxUint64 {
			// New, or parked at the end of the last Run's budget.
			c.ev = nil
			s.advance(i)
		}
	}
	base := s.base
	err := s.merge()
	s.flush(&base)
	return err
}
