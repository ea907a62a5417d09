package noc

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 4, 0, 0); err == nil {
		t.Error("0-wide mesh accepted")
	}
	m, err := New(4, 4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.HopLatency() != 2 || m.HopEnergy() != 0.05 {
		t.Errorf("defaults = %d cycles, %v nJ", m.HopLatency(), m.HopEnergy())
	}
}

func TestForTiles(t *testing.T) {
	cases := []struct{ n, minNodes int }{{1, 1}, {4, 4}, {5, 5}, {16, 16}, {12, 12}}
	for _, c := range cases {
		m, err := ForTiles(c.n)
		if err != nil {
			t.Fatal(err)
		}
		if m.Nodes() < c.minNodes {
			t.Errorf("ForTiles(%d) has %d nodes", c.n, m.Nodes())
		}
	}
	if _, err := ForTiles(0); err == nil {
		t.Error("ForTiles(0) accepted")
	}
}

func TestHopsManhattan(t *testing.T) {
	m := MustNew(4, 4, 0, 0)
	cases := []struct{ from, to, want int }{
		{0, 0, 0},
		{0, 3, 3},  // same row
		{0, 12, 3}, // same column
		{0, 15, 6}, // opposite corner
		{5, 10, 2}, // interior diagonal
		{3, 12, 6}, // anti-diagonal corners
	}
	for _, c := range cases {
		got, err := m.Hops(c.from, c.to)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.from, c.to, got, c.want)
		}
	}
	if _, err := m.Hops(0, 16); err == nil {
		t.Error("out-of-mesh node accepted")
	}
}

func TestTraverseAccounting(t *testing.T) {
	m := MustNew(4, 4, 3, 0.1)
	lat, err := m.Traverse(0, 15)
	if err != nil {
		t.Fatal(err)
	}
	if lat != 18 { // 6 hops x 3 cycles
		t.Errorf("latency = %d, want 18", lat)
	}
	if lat, _ := m.Traverse(5, 5); lat != 0 {
		t.Errorf("local latency = %d, want 0", lat)
	}
	s := m.Stats()
	if s.Messages != 2 || s.Hops != 6 || s.LocalMessages != 1 {
		t.Errorf("stats = %+v", s)
	}
	if got := m.AverageHops(); got != 3 {
		t.Errorf("AverageHops = %v, want 3", got)
	}
	if got := m.Energy(); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("Energy = %v nJ, want 0.6", got)
	}
}

// Properties: hops are symmetric, zero only on identity, and satisfy the
// triangle inequality on a mesh (Manhattan metric).
func TestHopsMetricProperties(t *testing.T) {
	m := MustNew(6, 6, 0, 0)
	f := func(a, b, c uint8) bool {
		x, y, z := int(a)%36, int(b)%36, int(c)%36
		xy, _ := m.Hops(x, y)
		yx, _ := m.Hops(y, x)
		if xy != yx {
			return false
		}
		if (xy == 0) != (x == y) {
			return false
		}
		xz, _ := m.Hops(x, z)
		zy, _ := m.Hops(z, y)
		return xy <= xz+zy
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
