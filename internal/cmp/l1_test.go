package cmp

import (
	"fmt"
	"testing"

	"molcache/internal/addr"
	"molcache/internal/cache"
	"molcache/internal/rng"
	"molcache/internal/trace"
	"molcache/internal/workload"
)

// uniformGen issues reads and writes (one in four) at uniformly random
// byte addresses of a footprint at base.
type uniformGen struct {
	base, footprint uint64
	src             *rng.Source
}

func (u *uniformGen) Name() string { return "uniform" }
func (u *uniformGen) Next() workload.Access {
	return workload.Access{
		Addr:  u.base + uint64(u.src.Intn(int(u.footprint))),
		Write: u.src.Intn(4) == 0,
	}
}

// TestL1FilterMatchesCache holds the tag-only filter to the cache it
// replaced: on every registered workload model, and on uniformly random
// reads and writes over footprints from half to four times the L1, the
// filter hits on exactly the references a 16 KB 4-way 64 B cache.Cache
// hits on, for a million references each.
func TestL1FilterMatchesCache(t *testing.T) {
	const refs = 1_000_000
	type tc struct {
		name string
		gen  workload.Generator
	}
	var cases []tc
	for i, name := range workload.Names() {
		_, gen, err := MixApp(i%maxCores, name, 2006)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{name, gen})
	}
	for i, kb := range []uint64{8, 16, 32, 64} {
		cases = append(cases, tc{fmt.Sprintf("uniform-%dKB", kb),
			&uniformGen{base: uint64(i+1) << asidShift, footprint: kb * addr.KB, src: rng.New(uint64(i + 1))}})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			var f filter
			l1 := cache.MustNew(cache.Config{Size: l1Size, Ways: l1Ways, LineSize: lineSize})
			hits := 0
			for n := 0; n < refs; n++ {
				acc := c.gen.Next()
				want := l1.Access(refOf(acc, 1)).Hit
				if got := f.access(acc.Addr); got != want {
					t.Fatalf("reference %d (%#x, write %v): filter hit = %v, cache hit = %v", n, acc.Addr, acc.Write, got, want)
				}
				if want {
					hits++
				}
			}
			if hits == 0 || hits == refs {
				t.Errorf("%d hits in %d references: the comparison is vacuous", hits, refs)
			}
		})
	}
}

// refOf is acc as core asid's reference.
func refOf(acc workload.Access, asid uint16) trace.Ref {
	r := trace.Ref{Addr: acc.Addr, ASID: asid, Kind: trace.Read}
	if acc.Write {
		r.Kind = trace.Write
	}
	return r
}
