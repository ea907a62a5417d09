// Command profile computes per-application LRU miss-ratio curves
// (Mattson stack distances) from a workload mix's L1-miss stream, prints
// working-set knees, and derives an oracle static partition for a target
// cache size — the strongest static baseline a dynamic partitioner can
// be compared against.
//
// Usage:
//
//	profile -mix art,mcf,ammp,parser -refs 8000000 -size 2MB -goal 0.10
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"molcache/internal/addr"
	"molcache/internal/cmp"
	"molcache/internal/stackdist"
	"molcache/internal/tabletext"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("profile: ")
	mix := flag.String("mix", "art,mcf,ammp,parser", "comma-separated workload names")
	refs := flag.Int("refs", 8_000_000, "processor references to drive")
	size := flag.String("size", "2MB", "target cache size for the oracle partition")
	goal := flag.Float64("goal", 0.10, "miss-rate goal for the oracle partition")
	chunkKB := flag.Int("chunk", 8, "oracle allocation granularity in KB")
	seed := flag.Uint64("seed", 2006, "simulation seed")
	flag.Parse()

	targetBytes, err := addr.ParseBytes(*size)
	if err != nil {
		log.Fatal(err)
	}

	// Capture the L1-miss stream (the reference stream an L2 sees).
	apps := strings.Split(*mix, ",")
	names := map[uint16]string{}
	var asids []uint16
	for i := range apps {
		apps[i] = strings.TrimSpace(apps[i])
		asid := uint16(i + 1)
		names[asid] = apps[i]
		asids = append(asids, asid)
	}
	captured, err := cmp.CaptureMix(apps, *refs, *seed)
	if err != nil {
		log.Fatal(err)
	}

	prof := stackdist.New(64)
	for _, r := range captured {
		prof.Record(r.ASID, r.Addr)
	}

	// Per-application curves, sampled at cache-relevant sizes.
	samples := []uint64{64 * addr.KB, 256 * addr.KB, 512 * addr.KB,
		1 * addr.MB, 2 * addr.MB, 4 * addr.MB}
	headers := []string{"app", "L2 refs", "footprint"}
	for _, s := range samples {
		headers = append(headers, "miss@"+addr.Bytes(s))
	}
	t := tabletext.New("LRU miss-ratio curves (from the L1-miss stream)", headers...)
	curves := map[uint16]*stackdist.Curve{}
	goals := map[uint16]float64{}
	for _, asid := range asids {
		c, err := prof.Curve(asid)
		if err != nil {
			log.Fatal(err)
		}
		curves[asid] = c
		goals[asid] = *goal
		cells := []string{
			names[asid],
			fmt.Sprintf("%d", c.Refs),
			addr.Bytes(uint64(c.Footprint) * 64),
		}
		for _, s := range samples {
			cells = append(cells, fmt.Sprintf("%.3f", c.MissRateAt(int(s/64))))
		}
		t.AddRow(cells...)
	}
	fmt.Println(t)

	// The oracle partition for the target size.
	alloc, err := stackdist.OraclePartition(curves, goals,
		int(targetBytes/64), *chunkKB*1024/64)
	if err != nil {
		log.Fatal(err)
	}
	ot := tabletext.New(
		fmt.Sprintf("Oracle static partition of %s (goal %.0f%%)", addr.Bytes(targetBytes), *goal*100),
		"app", "allocation", "predicted miss", "meets goal")
	for _, asid := range asids {
		meets := "no"
		if alloc.PredictedMiss[asid] <= *goal {
			meets = "yes"
		}
		ot.AddRow(names[asid],
			addr.Bytes(uint64(alloc.Lines[asid])*64),
			fmt.Sprintf("%.3f", alloc.PredictedMiss[asid]),
			meets)
	}
	fmt.Println(ot)
	fmt.Printf("predicted average deviation: %.4f\n", alloc.PredictedDeviation)
}
