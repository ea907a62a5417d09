package workload

import (
	"testing"

	"molcache/internal/rng"
)

func TestStreamSequentialAndWraps(t *testing.T) {
	s := NewStream("s", 0x1000, 16, 0, rng.New(1))
	want := []uint64{0x1000, 0x1004, 0x1008, 0x100c, 0x1000}
	for i, w := range want {
		if got := s.Next().Addr; got != w {
			t.Errorf("step %d: addr %#x, want %#x", i, got, w)
		}
	}
}

func TestStreamWriteFraction(t *testing.T) {
	s := NewStream("s", 0, 1<<20, 0.5, rng.New(2))
	writes := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if s.Next().Write {
			writes++
		}
	}
	frac := float64(writes) / n
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("write fraction = %v, want ~0.5", frac)
	}
}

func TestStreamZeroWriteFraction(t *testing.T) {
	s := NewStream("s", 0, 1024, 0, rng.New(3))
	for i := 0; i < 100; i++ {
		if s.Next().Write {
			t.Fatal("writeFraction 0 produced a write")
		}
	}
}

func TestStrideStaysInRegion(t *testing.T) {
	s := NewStride("s", 0x10000, 4096, 512, 0, rng.New(4))
	for i := 0; i < 1000; i++ {
		a := s.Next().Addr
		if a < 0x10000 || a >= 0x10000+4096 {
			t.Fatalf("stride escaped region: %#x", a)
		}
	}
}

func TestLoopRevisitsWorkingSet(t *testing.T) {
	l := NewLoop("l", 0, 256, 0, rng.New(5))
	seen := map[uint64]int{}
	for i := 0; i < 128; i++ { // two full sweeps of 64 words
		seen[l.Next().Addr]++
	}
	if len(seen) != 64 {
		t.Errorf("distinct addresses = %d, want 64", len(seen))
	}
	for a, c := range seen {
		if c != 2 {
			t.Errorf("addr %#x visited %d times, want 2", a, c)
		}
	}
}

func TestPointerChaseIsFullCycle(t *testing.T) {
	const size, span = 64 * 64, 64
	p := NewPointerChase("p", 0, size, span, 0, rng.New(6))
	seen := map[uint64]bool{}
	for i := 0; i < size/span; i++ {
		a := p.Next().Addr
		if a%span != 0 || a >= size {
			t.Fatalf("bad chase address %#x", a)
		}
		if seen[a] {
			t.Fatalf("address %#x revisited before cycle completed", a)
		}
		seen[a] = true
	}
	// The next access must restart the cycle.
	if a := p.Next().Addr; !seen[a] {
		t.Errorf("cycle did not close: %#x", a)
	}
}

func TestZipfSkewedTowardsHotLines(t *testing.T) {
	z := NewZipf("z", 0, 64*64, 64, 1.0, 1, 0, rng.New(7))
	counts := map[uint64]int{}
	for i := 0; i < 30000; i++ {
		a := z.Next().Addr
		if a >= 64*64 {
			t.Fatalf("zipf escaped region: %#x", a)
		}
		counts[a/64]++
	}
	max, total := 0, 0
	for _, c := range counts {
		total += c
		if c > max {
			max = c
		}
	}
	// With theta=1 over 64 lines, the hottest line draws ~21% of refs;
	// a uniform distribution would give ~1.6%.
	if frac := float64(max) / float64(total); frac < 0.10 {
		t.Errorf("hottest line fraction %v, want >= 0.10 (skewed)", frac)
	}
}

func TestMixRespectsWeights(t *testing.T) {
	src := rng.New(8)
	a := NewStream("a", 0, 1024, 0, src)
	b := NewStream("b", 1<<30, 1024, 0, src)
	m := NewMix("m", src, []Generator{a, b}, []float64{0.8, 0.2})
	fromA := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if m.Next().Addr < 1<<30 {
			fromA++
		}
	}
	frac := float64(fromA) / n
	if frac < 0.75 || frac > 0.85 {
		t.Errorf("component A fraction = %v, want ~0.8", frac)
	}
}

func TestPhasedCycles(t *testing.T) {
	src := rng.New(9)
	p := NewPhased("p", []Phase{
		{Gen: NewStream("x", 0, 1024, 0, src), Len: 3},
		{Gen: NewStream("y", 1<<30, 1024, 0, src), Len: 2},
	})
	var got []bool // true = phase y
	for i := 0; i < 10; i++ {
		got = append(got, p.Next().Addr >= 1<<30)
	}
	want := []bool{false, false, false, true, true, false, false, false, true, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("phase sequence mismatch at %d: got %v want %v", i, got, want)
		}
	}
}

func TestConstructorPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func()
	}{
		{"stream-zero", func() { NewStream("s", 0, 0, 0, rng.New(1)) }},
		{"stride-zero", func() { NewStride("s", 0, 0, 64, 0, rng.New(1)) }},
		{"stride-zero-stride", func() { NewStride("s", 0, 1024, 0, 0, rng.New(1)) }},
		{"loop-zero", func() { NewLoop("l", 0, 0, 0, rng.New(1)) }},
		{"chase-tiny", func() { NewPointerChase("p", 0, 64, 64, 0, rng.New(1)) }},
		{"zipf-empty", func() { NewZipf("z", 0, 32, 64, 1, 1, 0, rng.New(1)) }},
		{"mix-empty", func() { NewMix("m", rng.New(1), nil, nil) }},
		{"mix-mismatch", func() {
			NewMix("m", rng.New(1),
				[]Generator{NewLoop("l", 0, 64, 0, rng.New(1))}, []float64{1, 2})
		}},
		{"mix-zero-weights", func() {
			NewMix("m", rng.New(1),
				[]Generator{NewLoop("l", 0, 64, 0, rng.New(1))}, []float64{0})
		}},
		{"phased-empty", func() { NewPhased("p", nil) }},
		{"phased-zero-len", func() {
			NewPhased("p", []Phase{{Gen: NewLoop("l", 0, 64, 0, rng.New(1)), Len: 0}})
		}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: constructor did not panic", c.name)
				}
			}()
			c.f()
		}()
	}
}

func TestZipfRunEmitsConsecutiveWords(t *testing.T) {
	z := NewZipf("z", 0, 64*64, 64, 1.0, 8, 0, rng.New(21))
	first := z.Next().Addr
	for i := 1; i < 8; i++ {
		got := z.Next().Addr
		if got != first+uint64(i)*4 {
			t.Fatalf("run word %d at %#x, want %#x", i, got, first+uint64(i)*4)
		}
	}
	// The next access starts a fresh run at a line boundary.
	if a := z.Next().Addr; a%64 != 0 {
		t.Errorf("new run started mid-line at %#x", a)
	}
}

func TestZipfRejectsBadRun(t *testing.T) {
	for _, run := range []int{0, 17} { // 64B line = 16 words max
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("run=%d accepted", run)
				}
			}()
			NewZipf("z", 0, 64*64, 64, 1.0, run, 0, rng.New(1))
		}()
	}
}

func TestStaggerIsLineAlignedAndBounded(t *testing.T) {
	src := rng.New(33)
	for i := 0; i < 1000; i++ {
		off := stagger(src)
		if off%64 != 0 {
			t.Fatalf("stagger %#x not line aligned", off)
		}
		if off >= 768*kb {
			t.Fatalf("stagger %#x exceeds 768KB", off)
		}
	}
}
