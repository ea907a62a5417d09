// Partitioning: reproduce the paper's motivating observation (Table 1) —
// on a shared cache an application's miss rate depends on who else is
// running — and show what the molecular cache's ASID-gated regions do
// about it, using the full CMP substrate (cores with private L1s) and
// the calibrated SPEC workload models.
package main

import (
	"fmt"
	"log"

	"molcache"
)

const refs = 40_000_000

var mix = []string{"art", "mcf", "ammp", "parser"}

func main() {
	fmt.Println("Part 1 — the problem (paper Table 1): on a shared 2MB 4-way L2,")
	fmt.Println("a benchmark's miss rate depends on its co-runners.")
	fmt.Println()
	alone := map[string]float64{}
	for _, name := range mix {
		l2 := newShared()
		run(l2, []string{name}, refs/4)
		alone[name] = l2.Ledger().App(1).MissRate()
	}
	sharedL2 := newShared()
	run(sharedL2, mix, refs)

	// The replay trace comes from the paper's reference configuration
	// (a 1MB 4-way shared L2), as in the SESC-to-Dinero methodology.
	captured, err := molcache.CaptureMix(mix, refs, 2006)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-8s  %-12s  %s\n", "app", "alone", "with all four")
	for i, name := range mix {
		fmt.Printf("%-8s  %-12.3f  %.3f\n",
			name, alone[name], sharedL2.Ledger().App(uint16(i+1)).MissRate())
	}

	fmt.Println()
	fmt.Println("Part 2 — the fix: the captured L1-miss stream replayed (the")
	fmt.Println("paper's trace methodology) into a fresh shared 2MB 8-way cache")
	fmt.Println("and into a 2MB molecular cache with per-application regions")
	fmt.Println("resized toward a 10% goal (art, ammp, parser managed; mcf can")
	fmt.Println("never meet it and is left unmanaged).")
	fmt.Println()
	replayShared, err := molcache.NewTraditional(molcache.TraditionalConfig{
		Size: 2 << 20, Ways: 8, LineSize: 64,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range captured {
		replayShared.Access(r)
	}
	sim, err := molcache.NewSimulator(
		molcache.MolecularConfig{TotalSize: 2 << 20, Policy: molcache.Random, Seed: 7},
		molcache.ResizeConfig{Goals: map[uint16]float64{1: 0.10, 3: 0.10, 4: 0.10}},
	)
	if err != nil {
		log.Fatal(err)
	}
	sim.Run(captured)

	goals := molcache.UniformGoals(0.10, 1, 3, 4)
	fmt.Printf("%-8s  %-12s  %-12s  %s\n", "app", "shared", "molecular", "partition")
	for i, name := range mix {
		asid := uint16(i + 1)
		fmt.Printf("%-8s  %-12.3f  %-12.3f  %d molecules\n",
			name,
			replayShared.Ledger().App(asid).MissRate(),
			sim.Cache.Ledger().App(asid).MissRate(),
			sim.Cache.Region(asid).MoleculeCount())
	}
	fmt.Println()
	fmt.Printf("avg deviation from the 10%% goal: shared %.3f, molecular %.3f\n",
		molcache.AverageDeviation(replayShared.Ledger(), goals),
		molcache.AverageDeviation(sim.Cache.Ledger(), goals))
	fmt.Printf("molecules probed per access (energy proxy): %.1f of %d\n",
		sim.Cache.AverageProbes(), sim.Cache.TotalMolecules())
}

// newShared builds the shared baseline L2.
func newShared() *molcache.TraditionalCache {
	l2, err := molcache.NewTraditional(molcache.TraditionalConfig{
		Size: 2 << 20, Ways: 4, LineSize: 64,
	})
	if err != nil {
		log.Fatal(err)
	}
	return l2
}

// run runs the CMP with one core per benchmark (ASIDs 1..n) over l2 for
// n processor references.
func run(l2 molcache.Cache, names []string, n int) {
	sys, err := molcache.NewSystem(l2, molcache.SystemConfig{})
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.AddMix(names, 2006); err != nil {
		log.Fatal(err)
	}
	if err := sys.Run(n); err != nil {
		log.Fatal(err)
	}
}
