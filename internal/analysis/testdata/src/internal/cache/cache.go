// Package cache is a molvet fixture seeded with determinism, map-order
// and panic-discipline violations. Its import path ends in
// internal/cache, so the suffix-matched rule scoping treats it exactly
// like the real simulation package. The golden test pins every expected
// diagnostic; edits here must be mirrored in testdata/cache.golden.
// By-value lock copies are left to go vet's copylocks check.
package cache

import (
	"fmt"
	"math/rand"
	"os"
	"time"
)

// Stamp reads the wall clock in a simulation package (determinism).
func Stamp() time.Time {
	return time.Now()
}

// Tuning reads the environment and draws from the global math/rand
// source (two determinism findings).
func Tuning() int {
	if os.Getenv("CACHE_FAST") != "" {
		return 1
	}
	return rand.Intn(8)
}

// Sanctioned carries a reasoned ignore directive, so its clock read
// must NOT appear in the diagnostics.
func Sanctioned() time.Time {
	//molvet:ignore determinism fixture: a reasoned directive on the line above suppresses the finding
	return time.Now()
}

// First leaks map iteration order: the returned entry depends on the
// runtime's random map walk (map-order).
func First(m map[string]int) int {
	for _, v := range m {
		return v
	}
	return 0
}

// Misdirected exercises the directive pseudo-rule: the first marker
// names a rule that does not exist and the second has no reason; both
// are diagnosed, and neither suppresses the map-order finding below.
func Misdirected(m map[string]int) int {
	//molvet:ignore no-such-rule fixtures test the unknown-rule path
	//molvet:ignore determinism
	for _, v := range m {
		return v
	}
	return 0
}

// Explode aborts on negative input instead of returning an error, and
// its comment never documents that contract — so the discipline rule
// must flag it.
func Explode(n int) int {
	if n < 0 {
		panic(fmt.Sprintf("cache: negative %d", n))
	}
	return n
}
