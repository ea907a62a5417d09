// Resizing: watch Algorithm 1 track a program through phase changes.
// The workload alternates between a small and a large working set; the
// controller grows the partition when the miss-rate goal is blown and
// taxes it back once the pressure is gone.
package main

import (
	"fmt"
	"log"

	"molcache"
)

func main() {
	sim, err := molcache.NewSimulator(
		molcache.MolecularConfig{TotalSize: 2 << 20, Policy: molcache.Randy, Seed: 3},
		molcache.ResizeConfig{
			Period:      10_000,
			Trigger:     molcache.AdaptiveGlobalTrigger,
			DefaultGoal: 0.10,
		},
	)
	if err != nil {
		log.Fatal(err)
	}
	// A competing application keeps the free pool under pressure so the
	// controller has a reason to reclaim idle capacity.
	if _, err := sim.Cache.CreateRegion(2, molcache.RegionOptions{
		HomeCluster: 0, HomeTile: 1, InitialMolecules: 70,
	}); err != nil {
		log.Fatal(err)
	}

	// Program phases, line-granular accesses (an L1-miss stream). Both
	// applications loop; their working-set sizes change per phase.
	phase := func(span1, span2 uint64, n int, pos *uint64) {
		for i := 0; i < n; i++ {
			sim.Access(molcache.Ref{Addr: *pos % span1, ASID: 1, Kind: molcache.Read})
			sim.Access(molcache.Ref{Addr: 1<<36 + *pos%span2, ASID: 2, Kind: molcache.Read})
			*pos += 64
		}
	}
	size := func(asid uint16) int { return sim.Cache.Region(asid).MoleculeCount() }

	var pos uint64
	fmt.Println("phase A: app1 loops over 128KB, app2 over 128KB")
	phase(128<<10, 128<<10, 150_000, &pos)
	fmt.Printf("  partitions: app1 %d molecules, app2 %d molecules\n", size(1), size(2))

	fmt.Println("phase B: app1 jumps to a 1MB working set (goal blown -> growth)")
	phase(1<<20, 128<<10, 400_000, &pos)
	fmt.Printf("  partitions: app1 %d molecules, app2 %d molecules\n", size(1), size(2))

	fmt.Println("phase C: app1 back to 128KB while app2 jumps to 1MB —")
	fmt.Println("         capacity must migrate from app1 to app2")
	phase(128<<10, 1<<20, 700_000, &pos)
	fmt.Printf("  partitions: app1 %d molecules, app2 %d molecules\n", size(1), size(2))

	// Show the controller's decision log around the transitions.
	fmt.Println("\nresize decisions (one per line: action, windowed miss, size after):")
	decs := sim.Controller.Decisions()
	step := len(decs) / 24
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(decs); i += step {
		d := decs[i]
		if d.ASID != 1 {
			continue
		}
		fmt.Printf("  @%8d  %-12s miss=%.3f -> %3d molecules\n",
			d.At, d.Action, d.MissRate, d.SizeAfter)
	}
	fmt.Printf("\ndaemon cost: %d cycles over %d decisions (paper: 1500 cycles/app/pass)\n",
		sim.Controller.CyclesSpent(), sim.Controller.DecisionCount())
}
