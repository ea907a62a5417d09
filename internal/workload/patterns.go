// Package workload generates deterministic synthetic memory-reference
// streams that stand in for the paper's SPEC CPU2000, NetBench and
// MediaBench workloads.
//
// The substitution rationale (see DESIGN.md §2): the molecular cache only
// observes the L1-miss reference stream, so what matters is each
// benchmark's working-set size, reuse structure and spatial locality, not
// its instructions. Each model composes a small set of access-pattern
// primitives — sequential streams, strided walks, working-set loops,
// pointer chases and Zipf-popularity references — with parameters
// calibrated so the standalone and co-scheduled L2 miss-rate relationships
// reproduce the shape of the paper's Table 1.
package workload

import (
	"molcache/internal/rng"
)

// Access is one generated reference before the harness stamps ASID/CPU.
type Access struct {
	Addr  uint64
	Write bool
}

// Generator produces an infinite deterministic reference stream.
type Generator interface {
	// Name identifies the pattern or benchmark.
	Name() string
	// Next returns the next reference.
	Next() Access
}

// wordSize is the granularity of generated accesses. Four-byte accesses
// give the L1 realistic spatial-locality filtering over 64-byte lines.
const wordSize = 4

// Stream walks a region sequentially word by word, wrapping at the end.
// It models data streaming with perfect spatial and zero temporal reuse
// (packet payloads, file compression input).
type Stream struct {
	name string
	base uint64
	size uint64
	pos  uint64
	wrFr float64 // fraction of writes
	src  *rng.Source
}

// NewStream returns a streaming generator over [base, base+size).
func NewStream(name string, base, size uint64, writeFraction float64, src *rng.Source) *Stream {
	if size == 0 {
		panic("workload: NewStream with zero size")
	}
	return &Stream{name: name, base: base, size: size, wrFr: writeFraction, src: src}
}

// Name implements Generator.
func (s *Stream) Name() string { return s.name }

// Next implements Generator.
func (s *Stream) Next() Access {
	a := Access{Addr: s.base + s.pos, Write: s.src.Float64() < s.wrFr}
	s.pos += wordSize
	if s.pos >= s.size {
		s.pos = 0
	}
	return a
}

// Stride walks a region with a fixed byte stride, wrapping. Strides wider
// than a cache line defeat spatial locality (column-major matrix walks,
// image pyramids).
type Stride struct {
	name   string
	base   uint64
	size   uint64
	stride uint64
	pos    uint64
	wrFr   float64
	src    *rng.Source
}

// NewStride returns a strided generator over [base, base+size).
func NewStride(name string, base, size, stride uint64, writeFraction float64, src *rng.Source) *Stride {
	if size == 0 || stride == 0 {
		panic("workload: NewStride with zero size or stride")
	}
	return &Stride{name: name, base: base, size: size, stride: stride, wrFr: writeFraction, src: src}
}

// Name implements Generator.
func (s *Stride) Name() string { return s.name }

// Next implements Generator.
func (s *Stride) Next() Access {
	a := Access{Addr: s.base + s.pos, Write: s.src.Float64() < s.wrFr}
	s.pos += s.stride
	if s.pos >= s.size {
		// Restart shifted by one word so successive sweeps touch
		// different words of the same lines, like a blocked kernel.
		s.pos = (s.pos + wordSize) % s.stride
	}
	return a
}

// Loop repeatedly walks a fixed working set sequentially. High temporal
// and spatial reuse; the canonical cache-friendly (when it fits) or
// cache-thrashing (when it does not) pattern, which is exactly the
// behaviour the paper's art benchmark shows in Table 1.
type Loop struct {
	name string
	base uint64
	size uint64
	pos  uint64
	wrFr float64
	src  *rng.Source
}

// NewLoop returns a looping generator over a working set of size bytes.
func NewLoop(name string, base, size uint64, writeFraction float64, src *rng.Source) *Loop {
	if size == 0 {
		panic("workload: NewLoop with zero size")
	}
	return &Loop{name: name, base: base, size: size, wrFr: writeFraction, src: src}
}

// Name implements Generator.
func (l *Loop) Name() string { return l.name }

// Next implements Generator.
func (l *Loop) Next() Access {
	a := Access{Addr: l.base + l.pos, Write: l.src.Float64() < l.wrFr}
	l.pos += wordSize
	if l.pos >= l.size {
		l.pos = 0
	}
	return a
}

// PointerChase jumps through a pseudo-random permutation cycle over the
// lines of a region: every access lands on a different line with no
// spatial locality and a reuse distance equal to the full working set.
// This is the mcf model.
type PointerChase struct {
	name     string
	base     uint64
	lineSpan uint64
	next     []uint32 // successor line index
	cur      uint32
	wrFr     float64
	src      *rng.Source
}

// NewPointerChase builds a chase over size/lineSpan nodes. lineSpan is
// the byte distance between nodes (>= 64 defeats spatial locality).
func NewPointerChase(name string, base, size, lineSpan uint64, writeFraction float64, src *rng.Source) *PointerChase {
	n := int(size / lineSpan)
	if n < 2 {
		panic("workload: NewPointerChase needs at least 2 nodes")
	}
	perm := src.Perm(n)
	// Build a single cycle: perm[i] -> perm[i+1] -> ... -> perm[0].
	next := make([]uint32, n)
	for i := 0; i < n; i++ {
		next[perm[i]] = uint32(perm[(i+1)%n])
	}
	return &PointerChase{
		name: name, base: base, lineSpan: lineSpan,
		next: next, wrFr: writeFraction, src: src,
	}
}

// Name implements Generator.
func (p *PointerChase) Name() string { return p.name }

// Next implements Generator.
func (p *PointerChase) Next() Access {
	a := Access{
		Addr:  p.base + uint64(p.cur)*p.lineSpan,
		Write: p.src.Float64() < p.wrFr,
	}
	p.cur = p.next[p.cur]
	return a
}

// Zipf draws line-granular addresses from a Zipf popularity distribution
// over a region: a hot head plus a long cold tail (hash tables, parser
// dictionaries, NAT flow tables). Each sampled entry is read as a run of
// consecutive words (an "object"), which lets the L1 filter the run's
// tail the way real record accesses do.
type Zipf struct {
	name     string
	base     uint64
	lineSpan uint64
	z        *rng.Zipf
	perm     []uint32 // popularity rank -> line index, to avoid rank==layout correlation
	run      int
	runLeft  int
	runAddr  uint64
	wrFr     float64
	src      *rng.Source
}

// NewZipf returns a Zipf generator over size/lineSpan lines with skew
// theta, emitting run consecutive words per sampled entry (run <= words
// per line; 1 = one random word per sample).
func NewZipf(name string, base, size, lineSpan uint64, theta float64, run int, writeFraction float64, src *rng.Source) *Zipf {
	n := int(size / lineSpan)
	if n < 1 {
		panic("workload: NewZipf with empty region")
	}
	if run < 1 || uint64(run) > lineSpan/wordSize {
		panic("workload: NewZipf run must be in [1, words per entry]")
	}
	perm := make([]uint32, n)
	for i, v := range src.Perm(n) {
		perm[i] = uint32(v)
	}
	return &Zipf{
		name: name, base: base, lineSpan: lineSpan,
		z: rng.NewZipf(src, n, theta), perm: perm, run: run,
		wrFr: writeFraction, src: src,
	}
}

// Name implements Generator.
func (z *Zipf) Name() string { return z.name }

// Next implements Generator.
func (z *Zipf) Next() Access {
	if z.runLeft > 0 {
		z.runLeft--
		a := Access{Addr: z.runAddr, Write: z.src.Float64() < z.wrFr}
		z.runAddr += wordSize
		return a
	}
	rank := z.z.Next()
	line := uint64(z.perm[rank])
	start := z.base + line*z.lineSpan
	if z.run == 1 {
		// Single-word mode touches a varying word within the entry.
		word := uint64(z.src.Intn(int(z.lineSpan / wordSize)))
		return Access{Addr: start + word*wordSize, Write: z.src.Float64() < z.wrFr}
	}
	z.runAddr = start + wordSize
	z.runLeft = z.run - 1
	return Access{Addr: start, Write: z.src.Float64() < z.wrFr}
}

// Mix selects among component generators with fixed probabilities each
// step, modelling a program whose inner loops interleave several data
// structures.
type Mix struct {
	name string
	gens []Generator
	cdf  []float64
	src  *rng.Source
}

// NewMix builds a probabilistic mixture; weights need not sum to 1.
func NewMix(name string, src *rng.Source, gens []Generator, weights []float64) *Mix {
	if len(gens) == 0 || len(gens) != len(weights) {
		panic("workload: NewMix needs matching non-empty gens and weights")
	}
	cdf := make([]float64, len(weights))
	sum := 0.0
	for i, w := range weights {
		if w < 0 {
			panic("workload: NewMix with negative weight")
		}
		sum += w
		cdf[i] = sum
	}
	if sum == 0 {
		panic("workload: NewMix with all-zero weights")
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Mix{name: name, gens: gens, cdf: cdf, src: src}
}

// Name implements Generator.
func (m *Mix) Name() string { return m.name }

// Next implements Generator.
func (m *Mix) Next() Access {
	u := m.src.Float64()
	for i, c := range m.cdf {
		if u <= c {
			return m.gens[i].Next()
		}
	}
	return m.gens[len(m.gens)-1].Next()
}

// Phased cycles through (generator, duration) phases, modelling program
// phase behaviour — the reason the paper argues for *periodic* resizing.
type Phased struct {
	name   string
	phases []Phase
	idx    int
	left   uint64
}

// Phase is one program phase.
type Phase struct {
	Gen Generator
	Len uint64 // number of references in the phase
}

// NewPhased returns a phase-cycling generator.
func NewPhased(name string, phases []Phase) *Phased {
	if len(phases) == 0 {
		panic("workload: NewPhased with no phases")
	}
	for _, p := range phases {
		if p.Len == 0 {
			panic("workload: NewPhased with zero-length phase")
		}
	}
	return &Phased{name: name, phases: phases, left: phases[0].Len}
}

// Name implements Generator.
func (p *Phased) Name() string { return p.name }

// Next implements Generator.
func (p *Phased) Next() Access {
	if p.left == 0 {
		p.idx = (p.idx + 1) % len(p.phases)
		p.left = p.phases[p.idx].Len
	}
	p.left--
	return p.phases[p.idx].Gen.Next()
}
