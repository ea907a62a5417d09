package addr

import (
	"testing"
	"testing/quick"
)

func TestIsPow2(t *testing.T) {
	cases := []struct {
		v    uint64
		want bool
	}{
		{0, false}, {1, true}, {2, true}, {3, false}, {4, true},
		{63, false}, {64, true}, {1 << 20, true}, {(1 << 20) + 1, false},
		{1 << 63, true}, {^uint64(0), false},
	}
	for _, c := range cases {
		if got := IsPow2(c.v); got != c.want {
			t.Errorf("IsPow2(%d) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestLog2(t *testing.T) {
	cases := []struct {
		v    uint64
		want uint
	}{
		{1, 0}, {2, 1}, {3, 1}, {4, 2}, {64, 6}, {1 << 20, 20}, {1 << 63, 63},
	}
	for _, c := range cases {
		if got := Log2(c.v); got != c.want {
			t.Errorf("Log2(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestLog2PanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Log2(0) did not panic")
		}
	}()
	Log2(0)
}

func TestCheckPow2(t *testing.T) {
	if err := CheckPow2("size", 4096); err != nil {
		t.Errorf("CheckPow2(4096) = %v, want nil", err)
	}
	if err := CheckPow2("size", 4095); err == nil {
		t.Error("CheckPow2(4095) = nil, want error")
	}
}

func TestLineAlign(t *testing.T) {
	if got := LineAlign(0x12345, 64); got != 0x12340 {
		t.Errorf("LineAlign = %#x, want 0x12340", got)
	}
	if got := LineAlign(0x40, 64); got != 0x40 {
		t.Errorf("LineAlign aligned input = %#x, want 0x40", got)
	}
}

func TestMask(t *testing.T) {
	if got := Mask(0); got != 0 {
		t.Errorf("Mask(0) = %#x, want 0", got)
	}
	if got := Mask(6); got != 63 {
		t.Errorf("Mask(6) = %#x, want 63", got)
	}
	if got := Mask(64); got != ^uint64(0) {
		t.Errorf("Mask(64) = %#x, want all ones", got)
	}
	if got := Mask(80); got != ^uint64(0) {
		t.Errorf("Mask(80) = %#x, want all ones", got)
	}
}

func TestBytes(t *testing.T) {
	cases := []struct {
		v    uint64
		want string
	}{
		{64, "64B"}, {8 * KB, "8KB"}, {512 * KB, "512KB"},
		{MB, "1MB"}, {8 * MB, "8MB"}, {1000, "1000B"},
	}
	for _, c := range cases {
		if got := Bytes(c.v); got != c.want {
			t.Errorf("Bytes(%d) = %q, want %q", c.v, got, c.want)
		}
	}
}

// loopLog2 is the shift loop Log2 replaced, kept as its reference.
func loopLog2(v uint64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Property: for any v>0, Log2 agrees with the shift loop and
// 1<<Log2(v) <= v < 1<<(Log2(v)+1).
func TestLog2Property(t *testing.T) {
	f := func(v uint64) bool {
		if v == 0 {
			return true
		}
		n := Log2(v)
		if n != loopLog2(v) {
			return false
		}
		lo := uint64(1) << n
		if v < lo {
			return false
		}
		if n < 63 && v>>(n+1) != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Error(err)
	}
	// Random uint64s are almost all above 2^56; sweep every bit width
	// too, at both ends of each power-of-two range.
	for n := uint(0); n < 64; n++ {
		for _, v := range []uint64{1 << n, 1<<n | (1<<n - 1)} {
			if got, want := Log2(v), loopLog2(v); got != want {
				t.Errorf("Log2(%#x) = %d, want %d", v, got, want)
			}
		}
	}
}

// Property: LineAlign result is aligned and within one line below the input.
func TestLineAlignProperty(t *testing.T) {
	f := func(a uint64) bool {
		const line = 64
		g := LineAlign(a, line)
		return g%line == 0 && g <= a && a-g < line
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseBytes(t *testing.T) {
	good := []struct {
		in   string
		want uint64
	}{
		{"65536", 65536},
		{"0", 0},
		{"512KB", 512 * KB},
		{"2MB", 2 * MB},
		{"2mb", 2 * MB},
		{"1Kb", KB},
		{"  6MB ", 6 * MB},
		{"17592186044415MB", (1<<44 - 1) * MB},
		{"18014398509481983KB", (1<<54 - 1) * KB},
		{"18446744073709551615", ^uint64(0)},
	}
	for _, c := range good {
		if got, err := ParseBytes(c.in); err != nil || got != c.want {
			t.Errorf("ParseBytes(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
	bad := []string{
		"", "MB", "2 MB", "-1", "+1", "1.5MB", "2GB", "2B", "0x10",
		"18446744073709551616", // one past uint64 before any suffix
		"17592186044416MB",     // exactly 2^64 bytes
		"17592186044417MB",     // 2^64 + 1 MB: would wrap to 1 MB
		"18014398509481985KB",  // 2^64 + 1 KB: would wrap to 1 KB
	}
	for _, in := range bad {
		if got, err := ParseBytes(in); err == nil {
			t.Errorf("ParseBytes(%q) = %d, want an error", in, got)
		}
	}
}
