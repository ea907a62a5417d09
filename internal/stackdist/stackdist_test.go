package stackdist

import (
	"math"
	"testing"
	"testing/quick"

	"molcache/internal/cache"
	"molcache/internal/trace"
)

func TestFenwickBasics(t *testing.T) {
	f := newFenwick(8)
	f.ensure(16)
	f.add(3, 1)
	f.add(7, 1)
	f.add(12, 1)
	if got := f.sumRange(0, 15); got != 3 {
		t.Errorf("full sum = %d, want 3", got)
	}
	if got := f.sumRange(4, 11); got != 1 {
		t.Errorf("sumRange(4,11) = %d, want 1", got)
	}
	f.add(7, -1)
	if got := f.sumRange(4, 11); got != 0 {
		t.Errorf("after removal = %d, want 0", got)
	}
	if got := f.sumRange(5, 2); got != 0 {
		t.Errorf("empty range = %d, want 0", got)
	}
}

// Property: the Fenwick tree agrees with a naive array under random
// operations and growth.
func TestFenwickMatchesNaive(t *testing.T) {
	f := func(ops []uint16) bool {
		fw := newFenwick(4)
		naive := make([]int, 1<<16)
		for _, op := range ops {
			i := int(op % 2000)
			fw.ensure(i + 1)
			if op%3 == 0 {
				fw.add(i, 1)
				naive[i]++
			}
			lo, hi := int(op%500), int(op%1500)
			want := 0
			for j := lo; j <= hi && j < len(naive); j++ {
				want += naive[j]
			}
			if fw.sumRange(lo, hi) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// A cyclic sweep over N lines has stack distance N-1 for every revisit.
func TestProfilerCyclicSweep(t *testing.T) {
	p := New(64)
	const n = 100
	for sweep := 0; sweep < 5; sweep++ {
		for i := uint64(0); i < n; i++ {
			p.Record(1, i*64)
		}
	}
	c, err := p.Curve(1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Cold != n || c.Footprint != n {
		t.Errorf("cold=%d footprint=%d, want %d", c.Cold, c.Footprint, n)
	}
	// Capacity n: everything hits after warmup; capacity n-1: LRU
	// thrashes the cyclic sweep completely.
	if got := c.MissRateAt(n); math.Abs(got-float64(n)/float64(5*n)) > 1e-9 {
		t.Errorf("MissRateAt(%d) = %v, want cold-only %v", n, got, 0.2)
	}
	if got := c.MissRateAt(n - 1); got != 1 {
		t.Errorf("MissRateAt(%d) = %v, want 1 (LRU cyclic thrash)", n-1, got)
	}
}

// Repeated touches of one line have distance 0: any capacity hits.
func TestProfilerSingleLine(t *testing.T) {
	p := New(64)
	for i := 0; i < 10; i++ {
		p.Record(1, 0x40)
	}
	c, _ := p.Curve(1)
	if got := c.MissRateAt(1); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("MissRateAt(1) = %v, want 0.1 (one cold miss)", got)
	}
}

func TestProfilerPerASIDIsolation(t *testing.T) {
	p := New(64)
	p.Record(1, 0)
	p.Record(2, 0)
	p.Record(1, 0)
	c1, _ := p.Curve(1)
	if c1.Refs != 2 || c1.Cold != 1 {
		t.Errorf("app 1 curve: %+v", c1)
	}
	if _, err := p.Curve(9); err == nil {
		t.Error("Curve for unknown ASID succeeded")
	}
	if got := p.ASIDs(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("ASIDs = %v", got)
	}
}

// The curve must agree with an actual fully-associative LRU simulation.
func TestCurveMatchesLRUSimulation(t *testing.T) {
	// A reproducible mixed pattern: interleaved loop and strides.
	var refs []uint64
	for i := 0; i < 4000; i++ {
		refs = append(refs, uint64(i%97)*64)
		refs = append(refs, uint64(i%31)*64+1<<20)
		if i%7 == 0 {
			refs = append(refs, uint64(i)*128+1<<30)
		}
	}
	p := New(64)
	for _, a := range refs {
		p.Record(1, a)
	}
	c, _ := p.Curve(1)
	for _, lines := range []int{16, 64, 128, 256} {
		// Fully associative LRU of `lines` lines = 1 set x lines ways.
		sim := cache.MustNew(cache.Config{Size: uint64(lines) * 64, Ways: lines, LineSize: 64})
		misses := 0
		for _, a := range refs {
			if !sim.Access(trace.Ref{Addr: a, ASID: 1}).Hit {
				misses++
			}
		}
		want := float64(misses) / float64(len(refs))
		if got := c.MissRateAt(lines); math.Abs(got-want) > 1e-9 {
			t.Errorf("MissRateAt(%d) = %v, LRU simulation = %v", lines, got, want)
		}
	}
}

func TestLinesForMissRate(t *testing.T) {
	p := New(64)
	for sweep := 0; sweep < 10; sweep++ {
		for i := uint64(0); i < 50; i++ {
			p.Record(1, i*64)
		}
	}
	c, _ := p.Curve(1)
	lines, ok := c.LinesForMissRate(0.15)
	if !ok {
		t.Fatal("feasible target reported infeasible")
	}
	if lines != 50 {
		t.Errorf("LinesForMissRate(0.15) = %d, want 50 (the working set)", lines)
	}
	if _, ok := c.LinesForMissRate(0.01); ok {
		t.Error("infeasible target (cold misses alone exceed it) reported feasible")
	}
}

func TestOraclePartition(t *testing.T) {
	p := New(64)
	// App 1: 100-line working set; app 2: 300-line; app 3: streaming.
	for sweep := 0; sweep < 20; sweep++ {
		for i := uint64(0); i < 100; i++ {
			p.Record(1, i*64)
		}
		for i := uint64(0); i < 300; i++ {
			p.Record(2, i*64)
		}
	}
	for i := uint64(0); i < 6000; i++ {
		p.Record(3, i*64)
	}
	curves := map[uint16]*Curve{}
	for _, a := range p.ASIDs() {
		c, err := p.Curve(a)
		if err != nil {
			t.Fatal(err)
		}
		curves[a] = c
	}
	goals := map[uint16]float64{1: 0.10, 2: 0.10, 3: 0.10}
	alloc, err := OraclePartition(curves, goals, 1024, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Apps 1 and 2 must receive at least their working sets; app 3 is
	// hopeless and must not hoard beyond its seed.
	if alloc.Lines[1] < 100 {
		t.Errorf("app 1 got %d lines, needs 100", alloc.Lines[1])
	}
	if alloc.Lines[2] < 300 {
		t.Errorf("app 2 got %d lines, needs 300", alloc.Lines[2])
	}
	if alloc.Lines[3] > 32 {
		t.Errorf("streaming app hoarded %d lines", alloc.Lines[3])
	}
	if alloc.PredictedMiss[1] > 0.10 || alloc.PredictedMiss[2] > 0.10 {
		t.Errorf("oracle missed feasible goals: %+v", alloc.PredictedMiss)
	}
	if alloc.PredictedDeviation <= 0 {
		t.Error("deviation should be positive (the streaming app cannot meet its goal)")
	}
}

func TestOraclePartitionErrors(t *testing.T) {
	if _, err := OraclePartition(nil, nil, 100, 16); err == nil {
		t.Error("empty curves accepted")
	}
	curves := map[uint16]*Curve{1: {}}
	if _, err := OraclePartition(curves, nil, 100, 0); err == nil {
		t.Error("zero chunk accepted")
	}
	if _, err := OraclePartition(curves, nil, 8, 16); err == nil {
		t.Error("insufficient seed capacity accepted")
	}
}
