// Package rng provides the deterministic pseudo-random number generators
// used across the simulator.
//
// The paper notes that the Random and Randy replacement policies depend on
// "the entropy of the random number generator implemented in hardware".
// We model that hardware RNG with xoshiro256**, seeded via splitmix64,
// which has excellent uniformity for victim selection while keeping every
// experiment bit-for-bit reproducible. The package deliberately does not
// use math/rand so that streams are stable across Go releases.
package rng

import (
	"fmt"
	"math/bits"
)

// SplitMix64 is the seeding generator recommended by the xoshiro authors.
// It is also useful on its own as a cheap hash-like sequence.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next value in the sequence.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// DeriveSeed returns the stream-th seed derived from base. Distinct
// streams yield statistically independent xoshiro256** generators (each
// derived seed is one SplitMix64 output, the same mechanism New uses to
// expand a seed into a state), so concurrent jobs can each run their own
// Source without interleaving draws from a shared stream. The mapping is
// pure: DeriveSeed(base, i) is stable across runs and platforms.
func DeriveSeed(base, stream uint64) uint64 {
	// The stream-th state of a SplitMix64 walk starting at base.
	sm := SplitMix64{state: base + stream*0x9e3779b97f4a7c15}
	return sm.Next()
}

// Source is a xoshiro256** generator. The zero value is invalid; use New.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via SplitMix64, per the xoshiro
// reference implementation's seeding guidance.
func New(seed uint64) *Source {
	sm := NewSplitMix64(seed)
	var src Source
	for i := range src.s {
		src.s[i] = sm.Next()
	}
	// Guard against the (astronomically unlikely) all-zero state.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x9e3779b97f4a7c15
	}
	return &src
}

// State returns the generator's internal 256-bit state, for
// checkpointing. Feeding it back through SetState yields a Source that
// continues the exact draw sequence.
func (r *Source) State() [4]uint64 { return r.s }

// SetState overwrites the generator state with a previously captured
// State. It rejects the all-zero state (xoshiro's single invalid fixed
// point) so a corrupted checkpoint cannot wedge the stream.
func (r *Source) SetState(s [4]uint64) error {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		return fmt.Errorf("rng: all-zero xoshiro256** state is invalid")
	}
	r.s = s
	return nil
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 random bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
// Lemire's multiply-shift rejection method avoids modulo bias.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	un := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, un)
		if lo >= un || lo >= (-un)%un {
			return int(hi)
		}
	}
}

// Float64 returns a uniform value in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n) using Fisher-Yates.
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Zipf samples from a Zipf distribution over {0, ..., n-1} with exponent
// theta (theta > 0, typically around 0.8-1.2 for cache workloads). It uses
// the classic inverse-CDF method over a precomputed table: a sample is
// the first rank whose cdf entry reaches a uniform draw u. A guide table
// of K = 2^⌈log2 n⌉ buckets finds that rank in expected constant time:
// guide[k] is the first rank with cdf ≥ k/K, and the draw's top log2 K
// bits name the bucket whose start bounds the answer from below, so Next
// walks forward from there instead of binary-searching the whole table.
// Because K is a power of two, k/K and u·K are exact, and every draw
// yields the rank a binary search would.
type Zipf struct {
	src   *Source
	cdf   []float64
	guide []uint32
	// shift turns a 53-bit draw into its guide bucket: 53 - log2 K.
	shift uint
}

// NewZipf builds a Zipf sampler over n items with exponent theta.
// It panics if n <= 0 or theta <= 0.
func NewZipf(src *Source, n int, theta float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf with non-positive n")
	}
	if theta <= 0 {
		panic("rng: NewZipf with non-positive theta")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / pow(float64(i+1), theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	// cdf[n-1] is sum/sum = 1 exactly, above every k/K < 1, so the
	// sweep stays inside the table.
	logK := uint(bits.Len(uint(n - 1)))
	guide := make([]uint32, 1<<logK)
	rank := 0
	for k := range guide {
		for cdf[rank] < float64(k)/float64(len(guide)) {
			rank++
		}
		guide[k] = uint32(rank)
	}
	return &Zipf{src: src, cdf: cdf, guide: guide, shift: 53 - logK}
}

// Next returns the next sample; rank 0 is the most popular item. It
// consumes one 53-bit draw, the one Source.Float64 would take.
func (z *Zipf) Next() int {
	return z.rank(z.src.Uint64() >> 11)
}

// rank maps a 53-bit draw x, the uniform u = x/2^53, to the first rank
// whose cdf entry is at least u. Bucket x>>shift = ⌊u·K⌋ starts at a
// rank no later than the answer, and the walk from it is short: K ≥ n
// buckets split the cdf's n steps.
func (z *Zipf) rank(x uint64) int {
	u := float64(x) / (1 << 53)
	i := int(z.guide[x>>z.shift])
	for z.cdf[i] < u {
		i++
	}
	return i
}

// pow computes x**y for y > 0 without importing math, using exp/log-free
// exponentiation by squaring on the integer part and a small series for
// the fractional part. Accuracy (~1e-9 relative) far exceeds what a
// workload skew parameter needs.
func pow(x, y float64) float64 {
	if x <= 0 {
		return 0
	}
	// x^y = exp(y * ln x); implement ln and exp with enough precision.
	return exp(y * ln(x))
}

func ln(x float64) float64 {
	// Range-reduce x into [1, 2) by factoring out powers of two.
	k := 0
	for x >= 2 {
		x /= 2
		k++
	}
	for x < 1 {
		x *= 2
		k--
	}
	// atanh series: ln(x) = 2*atanh((x-1)/(x+1)).
	t := (x - 1) / (x + 1)
	t2 := t * t
	sum := 0.0
	term := t
	for i := 1; i < 40; i += 2 {
		sum += term / float64(i)
		term *= t2
	}
	const ln2 = 0.6931471805599453
	return 2*sum + float64(k)*ln2
}

func exp(x float64) float64 {
	// Range-reduce: x = k*ln2 + r with |r| <= ln2/2.
	const ln2 = 0.6931471805599453
	k := int(x/ln2 + sign(x)*0.5)
	r := x - float64(k)*ln2
	// Taylor series for e^r on the small remainder.
	sum := 1.0
	term := 1.0
	for i := 1; i < 20; i++ {
		term *= r / float64(i)
		sum += term
	}
	// Scale by 2^k.
	for ; k > 0; k-- {
		sum *= 2
	}
	for ; k < 0; k++ {
		sum /= 2
	}
	return sum
}

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}
