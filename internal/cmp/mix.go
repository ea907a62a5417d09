package cmp

import (
	"fmt"
	"math"

	"molcache/internal/cache"
	"molcache/internal/coherence"
	"molcache/internal/engine"
	"molcache/internal/trace"
	"molcache/internal/workload"
)

// RunMix is the two-stage way to run a mix built by MixApp, the way the
// paper splits its CMP: SESC filters each application through its L1,
// and Dinero sees only the L1-miss stream.
//
//   - Stage 1 drives one core's generator through its private L1 on its
//     own, with no directory and no other core, and writes each L1 miss,
//     with the count of L1 hits before it, into a bounded chunk that the
//     core reuses.
//   - Stage 2 merges the cores' misses through the shared L2 in (issue
//     cycle, core ID) order. Each miss advances its core by the L2's
//     answer (engine.L2HitCycles or engine.MemoryCycles) and each hit by
//     one cycle. The run stops at exactly refs processor references:
//     before a miss it counts every core's pending hits that issue ahead
//     of it.
//
// The result is exact. System issues references in strictly increasing
// (issue cycle, core ID) order, which is the order stage 2 merges in.
// MixApp puts core i in its own window [ASID<<36, (ASID+1)<<36) with ASID
// i+1, so no two cores ever touch one line. Every directory action is
// then empty, and each core's L1 sees the same references and ends in the
// same state as under System. The L2 gets the same references in the same
// order, and the capture holds the same stream. Stage 1 checks each
// address against its window, and the run fails with a *WindowError when
// one outside would issue.
//
// l2 is the shared cache. The returned stream is the captured L1-miss
// trace, or nil unless capture is set. The whole run stays on the calling
// goroutine. A mix with more than coherence.MaxCaches applications fails
// as AddMix does.
func RunMix(l2 engine.Cache, names []string, refs int, seed uint64, capture bool) ([]trace.Ref, error) {
	cores := make([]mixCore, len(names))
	for i, name := range names {
		asid, gen, err := MixApp(i, name, seed)
		if err != nil {
			return nil, err
		}
		if i >= coherence.MaxCaches {
			return nil, errTooManyCores
		}
		cores[i] = newMixCore(asid, gen)
	}
	return runMix(l2, cores, refs, capture)
}

// WindowError reports a reference outside its core's ASID window. RunMix
// is exact only while no two cores can touch one line, so it stops at the
// first such reference in issue order.
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

// Stage 1 runs one core up to chunkRefs processor references at a time,
// which keeps that core's generator and L1 hot in the host's caches
// (switching cores at every miss read about 7% slower on
// BenchmarkCaptureMix) and lets a hit count fit an event's uint32. A miss
// rate that fills chunkEvents first ends the chunk early.
const (
	chunkRefs   = 4096
	chunkEvents = 1024
)

// Event kinds. Every chunk ends with exactly one event that is not a
// miss: evHits when the core goes on in the next chunk, evEnd when stage
// 1 has generated the run's whole budget for it, evOutside at a
// reference outside its window.
const (
	evRead  = uint8(trace.Read)
	evWrite = uint8(trace.Write)
	evHits  = uint8(iota)
	evEnd
	evOutside
)

// Stage 2 counts one cycle per pending hit.
var (
	_ [l1HitCycles - 1]struct{}
	_ [1 - l1HitCycles]struct{}
)

// event is hits L1 hits followed by the reference kind names.
type event struct {
	addr uint64
	hits uint32
	kind uint8
}

// mixCore is one core of a RunMix run.
type mixCore struct {
	asid uint16
	gen  workload.Generator
	l1   *cache.Cache
	// left is how many references stage 1 may still generate.
	left int
	// ev is the unread part of the core's current chunk, whose storage
	// buf every chunk reuses.
	ev, buf []event
	// ready is the cycle the core's next pending reference issues at, and
	// hits the L1 hits pending before ev[0], the next miss (or the end of
	// the core's references).
	ready, hits uint64
}

func newMixCore(asid uint16, gen workload.Generator) mixCore {
	return mixCore{
		asid: asid,
		gen:  gen,
		l1:   cache.MustNew(cache.Config{Size: l1Size, Ways: l1Ways, LineSize: lineSize}),
		buf:  make([]event, 0, chunkEvents),
	}
}

// fill is stage 1: it runs the core's next chunkRefs references (fewer
// when its budget runs out or the chunk fills with misses) through its L1
// into a new chunk.
func (c *mixCore) fill() {
	ev := c.buf[:0]
	ref := trace.Ref{ASID: c.asid}
	n, hits := 0, uint32(0)
	for lim := min(c.left, chunkRefs); n < lim && len(ev) < chunkEvents-1; {
		acc := c.gen.Next()
		n++
		if acc.Addr>>asidShift != uint64(c.asid) {
			c.left = 0
			c.ev = append(ev, event{addr: acc.Addr, hits: hits, kind: evOutside})
			return
		}
		ref.Addr, ref.Kind = acc.Addr, trace.Read
		if acc.Write {
			ref.Kind = trace.Write
		}
		if hit, _, _, _ := c.l1.Probe(ref); hit {
			hits++
			continue
		}
		ev = append(ev, event{addr: acc.Addr, hits: hits, kind: uint8(ref.Kind)})
		hits = 0
	}
	c.left -= n
	last := evHits
	if c.left == 0 {
		last = evEnd
	}
	c.ev = append(ev, event{hits: hits, kind: last})
}

// merge is stage 2's state.
type merge struct {
	l2    engine.Cache
	cores []mixCore
	// keys[i] is core i's next event as (issue cycle)<<4 | i (core IDs
	// fit four bits: MaxCaches is at most 16), so the smallest key is the
	// next miss in (issue cycle, core ID) order; math.MaxUint64 once the
	// core has no further reference.
	keys [coherence.MaxCaches]uint64
	// done counts the references up to each core's last merged miss and
	// pending the L1 hits the cores have waiting after it.
	done, pending uint64
}

// runMix merges the misses of cores through l2 for refs processor
// references, filling a core's next chunk whenever stage 2 has read the
// last.
func runMix(l2 engine.Cache, cores []mixCore, refs int, capture bool) ([]trace.Ref, error) {
	if refs <= 0 || len(cores) == 0 {
		return nil, nil
	}
	m := &merge{l2: l2, cores: cores}
	for i := range cores {
		cores[i].left = refs // no core issues more than the run does
		m.advance(i)
	}
	return m.run(uint64(refs), capture)
}

// advance moves core i to its next miss (or end), taking in the hits of
// the evHits events on the way, and sets its key.
func (m *merge) advance(i int) {
	c := &m.cores[i]
	for {
		if len(c.ev) == 0 {
			c.fill()
		}
		e := &c.ev[0]
		c.hits += uint64(e.hits)
		m.pending += uint64(e.hits)
		switch e.kind {
		case evHits:
			c.ev = nil
			continue
		case evEnd:
			m.keys[i] = math.MaxUint64
		default:
			m.keys[i] = (c.ready+c.hits)<<4 | uint64(i)
		}
		return
	}
}

// run merges misses until the budget of refs processor references is
// spent or every core has issued all it generated.
func (m *merge) run(refs uint64, capture bool) ([]trace.Ref, error) {
	var out []trace.Ref
	keys := m.keys[:len(m.cores)]
	for {
		i, key := 0, keys[0]
		for j, k := range keys[1:] {
			if k < key {
				i, key = j+1, k
			}
		}
		if key == math.MaxUint64 {
			return out, nil
		}
		t := key >> 4
		// done+pending bounds the references issued before this miss;
		// only near the end is the exact count needed.
		if m.done+m.pending >= refs && m.issuedBefore(i, t) >= refs {
			return out, nil
		}
		c := &m.cores[i]
		e := c.ev[0]
		if e.kind == evOutside {
			return nil, &WindowError{Core: i, ASID: c.asid, Addr: e.addr}
		}
		ref := trace.Ref{Addr: e.addr, ASID: c.asid, CPU: uint8(i), Kind: trace.Kind(e.kind)}
		if capture {
			out = append(out, ref)
		}
		lat := uint64(engine.MemoryCycles)
		if m.l2.Access(ref).Hit {
			lat = engine.L2HitCycles
		}
		m.done += c.hits + 1
		m.pending -= c.hits
		c.hits = 0
		c.ready = t + lat
		c.ev = c.ev[1:]
		m.advance(i)
	}
}

// issuedBefore counts the references issued before core i's next miss at
// cycle t: every merged one, and each core's pending hits that issue
// ahead of it — at an earlier cycle, or at cycle t from a lower core ID.
// A core's pending hits issue one per cycle from its ready cycle.
func (m *merge) issuedBefore(i int, t uint64) uint64 {
	n := m.done
	for j := range m.cores {
		c := &m.cores[j]
		switch {
		case j == i:
			n += c.hits
		case c.ready <= t:
			ahead := t - c.ready
			if j < i {
				ahead++
			}
			n += min(ahead, c.hits)
		}
	}
	return n
}
