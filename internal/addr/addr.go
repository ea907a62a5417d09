// Package addr provides address arithmetic helpers shared by every cache
// model in the repository. All caches in this codebase use power-of-two
// geometries, so index/tag extraction reduces to shifts and masks.
package addr

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// IsPow2 reports whether v is a positive power of two.
func IsPow2(v uint64) bool {
	return v != 0 && v&(v-1) == 0
}

// Log2 returns floor(log2(v)). It panics if v == 0.
func Log2(v uint64) uint {
	if v == 0 {
		panic("addr: Log2 of zero")
	}
	return uint(bits.Len64(v) - 1)
}

// CheckPow2 returns an error naming the parameter if v is not a positive
// power of two. It is the standard geometry validation used by cache
// constructors.
func CheckPow2(name string, v uint64) error {
	if !IsPow2(v) {
		return fmt.Errorf("addr: %s must be a power of two, got %d", name, v)
	}
	return nil
}

// LineAlign clears the low bits of a so that it is aligned to lineSize.
// lineSize must be a power of two.
func LineAlign(a, lineSize uint64) uint64 {
	return a &^ (lineSize - 1)
}

// Mask returns a mask with the low n bits set.
func Mask(n uint) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << n) - 1
}

// Bytes formats a byte count using binary units (KB/MB) the way the paper
// writes cache sizes, e.g. 8192 -> "8KB", 2097152 -> "2MB".
func Bytes(v uint64) string {
	switch {
	case v >= 1<<20 && v%(1<<20) == 0:
		return fmt.Sprintf("%dMB", v>>20)
	case v >= 1<<10 && v%(1<<10) == 0:
		return fmt.Sprintf("%dKB", v>>10)
	default:
		return fmt.Sprintf("%dB", v)
	}
}

// ParseBytes parses a byte count the way the commands take cache sizes:
// a decimal count with an optional KB or MB suffix in any case, with
// optional surrounding spaces ("512KB", "2mb", "65536"). A count whose
// bytes overflow uint64 is an error, not a wrapped-around size.
func ParseBytes(s string) (uint64, error) {
	u := strings.ToUpper(strings.TrimSpace(s))
	mul := uint64(1)
	switch {
	case strings.HasSuffix(u, "MB"):
		mul, u = MB, strings.TrimSuffix(u, "MB")
	case strings.HasSuffix(u, "KB"):
		mul, u = KB, strings.TrimSuffix(u, "KB")
	}
	n, err := strconv.ParseUint(u, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", s)
	}
	hi, bytes := bits.Mul64(n, mul)
	if hi != 0 {
		return 0, fmt.Errorf("bad size %q: more than 2^64-1 bytes", s)
	}
	return bytes, nil
}

// KB and MB are convenience multipliers for cache geometry literals.
const (
	KB uint64 = 1 << 10
	MB uint64 = 1 << 20
)
