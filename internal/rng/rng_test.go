package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequences diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical values in 100 draws", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	for _, n := range []int{1, 2, 3, 7, 16, 1000} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

// Intn over a small modulus should be close to uniform; this is the
// property the Random replacement policy depends on.
func TestIntnUniformity(t *testing.T) {
	r := New(99)
	const n, draws = 8, 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Errorf("bucket %d: count %d deviates more than 5%% from %f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(5)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(11)
	z := NewZipf(r, 100, 1.0)
	counts := make([]int, 100)
	for i := 0; i < 50000; i++ {
		counts[z.Next()]++
	}
	// Rank 0 must be the most frequent, and frequencies must broadly decay.
	if counts[0] <= counts[10] || counts[10] <= counts[90] {
		t.Errorf("Zipf counts not decreasing: c0=%d c10=%d c90=%d",
			counts[0], counts[10], counts[90])
	}
	// With theta=1, p(0)/p(1) = 2; check ratio within 15%.
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 1.7 || ratio > 2.3 {
		t.Errorf("Zipf rank0/rank1 ratio = %v, want ~2", ratio)
	}
}

func TestZipfBounds(t *testing.T) {
	z := NewZipf(New(1), 10, 0.8)
	for i := 0; i < 5000; i++ {
		v := z.Next()
		if v < 0 || v >= 10 {
			t.Fatalf("Zipf sample %d out of range", v)
		}
	}
}

func TestLnExpAccuracy(t *testing.T) {
	cases := []float64{0.1, 0.5, 1, 2, 2.718281828, 10, 12345}
	for _, x := range cases {
		if got, want := ln(x), math.Log(x); math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Errorf("ln(%v) = %v, want %v", x, got, want)
		}
	}
	for _, x := range []float64{-5, -1, -0.1, 0, 0.1, 1, 5, 20} {
		if got, want := exp(x), math.Exp(x); math.Abs(got-want) > 1e-9*(1+want) {
			t.Errorf("exp(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestPowMatchesMath(t *testing.T) {
	f := func(xi, yi uint8) bool {
		x := 0.5 + float64(xi)/16 // [0.5, 16.4]
		y := 0.1 + float64(yi)/64 // [0.1, 4.1]
		got := pow(x, y)
		want := math.Pow(x, y)
		return math.Abs(got-want) <= 1e-8*(1+want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeriveSeedMatchesSplitMixWalk(t *testing.T) {
	// DeriveSeed(base, i) is defined as the (i+1)-th output of a
	// SplitMix64 walk starting at base — the same expansion New uses, so
	// derived generators inherit its independence guarantees.
	walk := NewSplitMix64(2006)
	for i := uint64(0); i < 100; i++ {
		if got, want := DeriveSeed(2006, i), walk.Next(); got != want {
			t.Fatalf("DeriveSeed(2006, %d) = %#x, want walk output %#x", i, got, want)
		}
	}
}

func TestDeriveSeedStreamsIndependent(t *testing.T) {
	// Distinct streams must yield distinct seeds and generators whose
	// outputs never coincide over a long prefix (a shared or correlated
	// state would show up as collisions immediately).
	const streams, draws = 16, 1000
	seen := map[uint64]int{}
	srcs := make([]*Source, streams)
	for i := 0; i < streams; i++ {
		s := DeriveSeed(2006, uint64(i))
		if prev, dup := seen[s]; dup {
			t.Fatalf("streams %d and %d share seed %#x", prev, i, s)
		}
		seen[s] = i
		srcs[i] = New(s)
	}
	values := map[uint64]bool{}
	for _, src := range srcs {
		for d := 0; d < draws; d++ {
			values[src.Uint64()] = true
		}
	}
	if len(values) != streams*draws {
		t.Errorf("cross-stream collisions: %d unique of %d draws",
			len(values), streams*draws)
	}
}

// TestDeriveSeedNoInterleaving is the scheduler-safety property the
// parallel runner depends on: a job's stream is a pure function of
// (base, job index), so the values a job draws cannot depend on how many
// draws other jobs made first — unlike jobs sharing one Source, where the
// completion order would reshuffle every sequence.
func TestDeriveSeedNoInterleaving(t *testing.T) {
	const jobs, draws = 8, 64
	drawAll := func(order []int) [jobs][draws]uint64 {
		var out [jobs][draws]uint64
		for _, j := range order {
			src := New(DeriveSeed(2006, uint64(j)))
			for d := 0; d < draws; d++ {
				out[j][d] = src.Uint64()
			}
		}
		return out
	}
	forward := make([]int, jobs)
	reverse := make([]int, jobs)
	for i := 0; i < jobs; i++ {
		forward[i] = i
		reverse[i] = jobs - 1 - i
	}
	if drawAll(forward) != drawAll(reverse) {
		t.Fatal("per-job streams depend on execution order")
	}

	// The counterexample: interleaving draws from one shared Source gives
	// each job a schedule-dependent sequence. This is why the runner
	// derives a seed per job instead of sharing a generator.
	shared := func(order []int) [jobs][draws]uint64 {
		var out [jobs][draws]uint64
		src := New(2006)
		for _, j := range order {
			for d := 0; d < draws; d++ {
				out[j][d] = src.Uint64()
			}
		}
		return out
	}
	if shared(forward) == shared(reverse) {
		t.Fatal("shared-source draws unexpectedly order-independent")
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values for seed 0 from the public-domain splitmix64.c.
	s := NewSplitMix64(0)
	want := []uint64{
		0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f,
	}
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Errorf("splitmix64 step %d = %#x, want %#x", i, got, w)
		}
	}
}

// TestZipfGuideMatchesBinarySearch checks the guide-table sampler
// against a plain binary search over the same cdf: for every table
// size and skew, each 53-bit draw tried must give the same rank. The
// draws are the ones nearest every cdf entry and their neighbours (the
// ties a walk that stops one entry early or late gets wrong), both
// ends of the draw range and 100K random draws.
func TestZipfGuideMatchesBinarySearch(t *testing.T) {
	const maxDraw = 1<<53 - 1
	search := func(cdf []float64, x uint64) int {
		u := float64(x) / (1 << 53)
		lo, hi := 0, len(cdf)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	src := New(2006)
	for _, n := range []int{1, 2, 3, 1000, 1536, 16384, 24576, 24577} {
		for _, theta := range []float64{0.55, 0.7, 1.0, 1.2} {
			z := NewZipf(New(1), n, theta)
			if k := len(z.guide); k < n || k&(k-1) != 0 || (k > 1 && k/2 >= n) {
				t.Fatalf("n=%d: %d guide buckets, want the least power of two >= n", n, k)
			}
			draws := []uint64{0, maxDraw}
			for _, c := range z.cdf {
				x := uint64(c * (1 << 53))
				for _, d := range []uint64{x - 1, x, x + 1} {
					if d <= maxDraw {
						draws = append(draws, d)
					}
				}
			}
			for i := 0; i < 100_000; i++ {
				draws = append(draws, src.Uint64()>>11)
			}
			for _, x := range draws {
				if got, want := z.rank(x), search(z.cdf, x); got != want {
					t.Fatalf("n=%d theta=%v draw %d: guide rank %d, binary search %d", n, theta, x, got, want)
				}
			}
		}
	}
}

// TestZipfNextTakesOneDraw checks that Next consumes exactly the draw
// Float64 would and ranks it as rank does.
func TestZipfNextTakesOneDraw(t *testing.T) {
	a, b := New(9), New(9)
	z := NewZipf(a, 1000, 1.0)
	for i := 0; i < 1000; i++ {
		if got, want := z.Next(), z.rank(b.Uint64()>>11); got != want {
			t.Fatalf("sample %d: Next %d, rank of the same draw %d", i, got, want)
		}
	}
}
