package cmp

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"

	"molcache/internal/engine"
	"molcache/internal/trace"
	"molcache/internal/workload"
)

// Stage 1 runs one core up to chunkRefs processor references at a time,
// which keeps that core's generator and L1 hot in the host's caches
// (switching cores at every miss read about 7% slower on
// BenchmarkCaptureMix) and lets a hit count fit an event's uint32. A miss
// rate that fills chunkEvents first ends the chunk early.
const (
	chunkRefs   = 4096
	chunkEvents = 1024
)

// captureBlock is the size of a capture block in bytes, and maxRecord
// the most one captured miss takes in it: a header byte and a varint.
// capture starts a record only where maxRecord bytes remain, so every
// record has at least 8 bytes of block from its first byte on, which
// flush's one 8-byte load per record needs.
const (
	captureBlock = 256 << 10
	maxRecord    = 1 + binary.MaxVarintLen64
)

var _ [maxRecord - 8]struct{}

// Event kinds. Every chunk ends with exactly one event that is not a
// miss: evHits, the hits after the chunk's last miss, or evOutside at a
// reference outside the core's window.
const (
	evRead  = uint8(trace.Read)
	evWrite = uint8(trace.Write)
	evHits  = uint8(iota)
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

// core is one processor: a workload, an ASID, a private L1 and a ring
// of two stage-1 chunks, the one stage 2 is merging and the one after
// it.
type core struct {
	asid uint16
	gen  workload.Generator
	l1   filter
	// left is how many references stage 1 may still generate. gen, l1
	// and left belong to whoever holds the core's claim to fill its
	// next chunk: the merge or the Run's helper, one at a time.
	left int
	// ev is the unread part of the chunk stage 2 is merging, in
	// bufs[cur]. The helper fills the next chunk into bufs[cur^1]; the
	// merge, filling it itself, reuses bufs[cur].
	ev   []event
	bufs [2][]event
	cur  int
	// Guarded by System.mu: ahead is the next chunk once the helper has
	// filled it (nil until then), claimed is set while a fill of the
	// next chunk runs outside the lock, and taken is when the merge last
	// moved on to a chunk.
	ahead   []event
	claimed bool
	taken   uint64
	// ready is the cycle the core's next pending reference issues at, and
	// hits the L1 hits pending before ev[0], the next miss (or the end of
	// the core's references).
	ready, hits uint64
}

// fill is stage 1: it runs the core's next chunkRefs references (fewer
// when its budget runs out or the chunk fills with misses) through its L1
// into ev's storage and returns the chunk.
func (c *core) fill(ev []event) []event {
	ev = ev[:0]
	n, hits := 0, uint32(0)
	for lim := min(c.left, chunkRefs); n < lim && len(ev) < chunkEvents-1; {
		acc := c.gen.Next()
		n++
		if acc.Addr>>asidShift != uint64(c.asid) {
			c.left = 0
			return append(ev, event{addr: acc.Addr, hits: hits, kind: evOutside})
		}
		if c.l1.access(acc.Addr) {
			hits++
			continue
		}
		kind := evRead
		if acc.Write {
			kind = evWrite
		}
		ev = append(ev, event{addr: acc.Addr, hits: hits, kind: kind})
		hits = 0
	}
	c.left -= n
	return append(ev, event{hits: hits, kind: evHits})
}

// advance moves core i to its next miss, taking in the hits of the
// evHits events on the way, and sets its key. Once stage 1 has generated
// the core's whole budget and the merge has read it, it parks the core
// with the key math.MaxUint64 (Run's next budget resumes it).
func (s *System) advance(i int) {
	c := &s.cores[i]
	for {
		if len(c.ev) == 0 && !s.next(i) {
			s.keys[i] = math.MaxUint64
			return
		}
		e := &c.ev[0]
		c.hits += uint64(e.hits)
		s.pending += uint64(e.hits)
		if e.kind != evHits {
			s.keys[i] = (c.ready+c.hits)<<4 | uint64(i)
			return
		}
		c.ev = nil
	}
}

// errFillPanicked stops a Run on a System where a stage-1 fill panicked:
// that core's generator and L1 are lost mid-chunk.
var errFillPanicked = errors.New("cmp: a stage-1 fill panicked; the system cannot run on")

// next moves the merge on to core i's next chunk and reports whether
// there is one: the chunk ahead when the helper has filled it, else one
// the merge fills into the chunk it has just read, after waiting for the
// helper if it is filling the chunk ahead. So without a helper each core
// reuses one chunk's storage. There is none once the core has generated
// its whole budget. It panics with errFillPanicked once a fill has
// panicked.
func (s *System) next(i int) bool {
	c := &s.cores[i]
	s.mu.Lock()
	for c.claimed && !s.failed {
		s.wake.Wait()
	}
	if s.failed {
		s.mu.Unlock()
		panic(errFillPanicked)
	}
	switch {
	case c.ahead != nil:
		c.ev, c.ahead = c.ahead, nil
		c.cur ^= 1
	case c.left > 0:
		c.ev = s.claimFill(i, c.bufs[c.cur])
	default:
		s.mu.Unlock()
		return false
	}
	s.taken++
	c.taken = s.taken
	s.wake.Broadcast()
	s.mu.Unlock()
	return true
}

// claimFill fills buf with core i's next chunk under the core's claim,
// outside s.mu, which it is called and returns with held. A fill that
// panics marks the System failed, so that nothing waits for its chunk,
// and unwinds with s.mu released.
func (s *System) claimFill(i int, buf []event) []event {
	c := &s.cores[i]
	c.claimed = true
	s.mu.Unlock()
	filled := false
	defer func() {
		if !filled {
			s.mu.Lock()
			s.failed = true
			s.wake.Broadcast()
			s.mu.Unlock()
		}
	}()
	ev := c.fill(buf)
	filled = true
	s.mu.Lock()
	c.claimed = false
	return ev
}

// runAhead is a Run's helper: until stopAhead, it fills the chunk ahead
// of the emptiest ring and waits while there is none to fill.
func (s *System) runAhead() {
	s.mu.Lock()
	for s.helping {
		if i := s.emptiest(); i >= 0 {
			c := &s.cores[i]
			c.ahead = s.claimFill(i, c.bufs[c.cur^1])
			s.helped++
			s.wake.Broadcast()
		} else {
			s.wake.Wait()
		}
	}
	s.mu.Unlock()
}

// stopAhead tells the Run's helper to return once the fill it is running
// is in its ring.
func (s *System) stopAhead() {
	s.mu.Lock()
	s.helping = false
	s.wake.Broadcast()
	s.mu.Unlock()
}

// emptiest returns the core whose chunk ahead the helper fills next, or
// -1 when there is none to fill: of the cores with budget left and no
// chunk ahead, filled or being filled, the one whose ring the merge
// moved on in longest ago. On a tie it takes the highest core ID, so at
// a Run's start, while the merge fills the cores' first chunks from
// core 0 up, the helper works down from the last core.
func (s *System) emptiest() int {
	best := -1
	for i := range s.cores {
		c := &s.cores[i]
		if c.ahead == nil && !c.claimed && c.left > 0 && (best < 0 || c.taken <= s.cores[best].taken) {
			best = i
		}
	}
	return best
}

// merge is stage 2: it merges misses through the L2 until the target is
// reached or every core has issued all it generated, moving a core on to
// its next chunk whenever it has read the last.
func (s *System) merge() error {
	keys := s.keys[:len(s.cores)]
	for {
		i, key := 0, keys[0]
		for j, k := range keys[1:] {
			if k < key {
				i, key = j+1, k
			}
		}
		if key == math.MaxUint64 {
			return nil
		}
		t := key >> 4
		// done+pending bounds the references issued before this miss;
		// only near the end is the exact count needed.
		if s.done+s.pending >= s.target && s.issuedBefore(i, t) >= s.target {
			return nil
		}
		c := &s.cores[i]
		e := c.ev[0]
		if e.kind == evOutside {
			return &WindowError{Core: i, ASID: c.asid, Addr: e.addr}
		}
		ref := trace.Ref{Addr: e.addr, ASID: c.asid, CPU: uint8(i), Kind: trace.Kind(e.kind)}
		if s.cfg.CaptureL1Misses {
			s.capture(i, e.addr, e.kind)
		}
		res := s.l2.Access(ref)
		if s.OnL2Access != nil {
			s.OnL2Access(ref, res)
		}
		lat := uint64(engine.MemoryCycles)
		if res.Hit {
			lat = engine.L2HitCycles
		}
		s.done += c.hits + 1
		s.pending -= c.hits
		c.hits = 0
		c.ready = t + lat
		c.ev = c.ev[1:]
		s.advance(i)
	}
}

// capture records core i's miss at a, of kind evRead or evWrite, in the
// current block, starting a new block when a record might not fit: a
// header byte i<<1 | kind, then the signed varint of a minus the core's
// last captured address.
func (s *System) capture(i int, a uint64, kind uint8) {
	if cap(s.block)-len(s.block) < maxRecord {
		if s.block != nil {
			s.blocks = append(s.blocks, s.block)
		}
		s.block = make([]byte, 0, captureBlock)
	}
	s.block = binary.AppendVarint(append(s.block, byte(i)<<1|kind), int64(a-s.base[i]))
	s.base[i] = a
	s.blockRefs++
}

// flush decodes the Run's capture blocks onto captured, into one slice
// allocated at its exact size. base is each core's last captured
// address before the Run, where its first delta starts; the decoding
// leaves it equal to s.base.
func (s *System) flush(base *[maxCores]uint64) {
	if s.block == nil {
		return
	}
	out := make([]trace.Ref, len(s.captured)+s.blockRefs)
	n := copy(out, s.captured)
	for _, b := range append(s.blocks, s.block) {
		full := b[:cap(b)]
		for off := 0; off < len(b); {
			h, d, w := decodeRecord(full[off:])
			i := h >> 1
			base[i] += uint64(d)
			out[n] = trace.Ref{Addr: base[i], ASID: s.cores[i].asid, CPU: i, Kind: trace.Kind(h & 1)}
			n++
			off += w
		}
	}
	s.captured, s.blocks, s.block, s.blockRefs = out, nil, nil, 0
}

// decodeRecord decodes the capture record at the start of b, which
// holds at least 8 bytes: its header byte h, its address delta d and
// its length w. One 8-byte load holds the header and a varint of up to
// 7 bytes (a delta within ±2^48), whose 7-bit groups are gathered
// without a per-byte loop; a longer varint, such as a core's first
// delta, falls back to binary.Varint.
func decodeRecord(b []byte) (h byte, d int64, w int) {
	x := binary.LittleEndian.Uint64(b)
	v := x >> 8
	end := ^v & 0x0080808080808080 // high bit clear: the varint's last byte
	if end == 0 {
		d, w = binary.Varint(b[1:])
		return byte(x), d, 1 + w
	}
	n := bits.TrailingZeros64(end)>>3 + 1
	v &= 1<<(8*n) - 1
	u := v&0x7f | v>>1&(0x7f<<7) | v>>2&(0x7f<<14) | v>>3&(0x7f<<21) |
		v>>4&(0x7f<<28) | v>>5&(0x7f<<35) | v>>6&(0x7f<<42)
	return byte(x), int64(u>>1) ^ -int64(u&1), 1 + n
}

// issuedBefore counts the references issued before core i's next miss at
// cycle t: every merged one, and each core's pending hits that issue
// ahead of it — at an earlier cycle, or at cycle t from a lower core ID.
// A core's pending hits issue one per cycle from its ready cycle.
func (s *System) issuedBefore(i int, t uint64) uint64 {
	n := s.done
	for j := range s.cores {
		c := &s.cores[j]
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
