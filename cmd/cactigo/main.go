// Command cactigo exposes the CACTI-style analytical power/timing model:
// given a cache geometry it prints dynamic energy per access, cycle time,
// frequency and power at 70 nm, for traditional and molecular caches.
//
// Usage:
//
//	cactigo -size 8MB -assoc 4 -ports 4
//	cactigo -molecular -size 8MB -molecule 8KB -tile 64 -probes 32
//	cactigo -sweep                # the paper's Table 4 geometries
package main

import (
	"flag"
	"fmt"
	"log"

	"molcache/internal/addr"
	"molcache/internal/power"
	"molcache/internal/tabletext"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cactigo: ")
	size := flag.String("size", "8MB", "total cache size")
	assoc := flag.Int("assoc", 4, "associativity (traditional)")
	line := flag.Int("line", 64, "line size in bytes")
	ports := flag.Int("ports", 4, "read/write ports (traditional)")
	mol := flag.Bool("molecular", false, "model a molecular cache")
	molecule := flag.String("molecule", "8KB", "molecule size (molecular)")
	tile := flag.Int("tile", 64, "molecules per tile (molecular)")
	probes := flag.Int("probes", 32, "molecules probed per access (molecular average case)")
	freq := flag.Float64("freq", 0, "report power at this frequency in MHz (0 = own frequency)")
	sweep := flag.Bool("sweep", false, "print the paper's Table 4 geometry sweep")
	flag.Parse()

	if *sweep {
		printSweep()
		return
	}
	sz, err := addr.ParseBytes(*size)
	if err != nil {
		log.Fatal(err)
	}
	if *mol {
		ms, err := addr.ParseBytes(*molecule)
		if err != nil {
			log.Fatal(err)
		}
		me, err := power.ModelMolecular(power.MolecularGeometry{
			TotalBytes:      sz,
			MoleculeBytes:   ms,
			LineBytes:       uint64(*line),
			TileMolecules:   *tile,
			PortsPerCluster: 1,
		}, power.Tech70)
		if err != nil {
			log.Fatal(err)
		}
		f := *freq
		if f == 0 {
			f = 1000 / me.CycleTime()
		}
		fmt.Printf("molecule: %.3f nJ/access, %.2f ns cycle (with ASID stage)\n",
			me.Molecule.AccessEnergy, me.CycleTime())
		fmt.Printf("access @%d probed molecules: %.2f nJ -> %.2f W at %.0f MHz\n",
			*probes, me.AccessEnergy(*probes), power.PowerWatts(me.AccessEnergy(*probes), f), f)
		fmt.Printf("worst case (all %d tile molecules): %.2f nJ -> %.2f W at %.0f MHz\n",
			*tile, me.WorstCaseEnergy(), power.PowerWatts(me.WorstCaseEnergy(), f), f)
		return
	}
	est, err := power.Model(power.Geometry{
		SizeBytes: sz, Assoc: *assoc, LineBytes: uint64(*line), Ports: *ports,
	}, power.Tech70)
	if err != nil {
		log.Fatal(err)
	}
	f := *freq
	if f == 0 {
		f = est.FrequencyMHz()
	}
	fmt.Printf("%s (%d ports): %.2f nJ/access (tag %.2f + data %.2f)\n",
		est.Geometry.Name(), *ports, est.AccessEnergy, est.TagEnergy, est.DataEnergy)
	fmt.Printf("cycle %.2f ns (%.0f MHz), organization Ndwl=%d Ndbl=%d\n",
		est.CycleTime, est.FrequencyMHz(), est.Ndwl, est.Ndbl)
	fmt.Printf("dynamic power at %.0f MHz: %.2f W\n", f, est.PowerWatts(f))
}

func printSweep() {
	t := tabletext.New("Table 4 geometry sweep (8MB, 4 ports, 70nm)",
		"cache type", "nJ/access", "cycle (ns)", "freq (MHz)", "power (W)")
	for _, a := range []int{1, 2, 4, 8} {
		e, err := power.Model(power.Geometry{
			SizeBytes: 8 * addr.MB, Assoc: a, LineBytes: 64, Ports: 4,
		}, power.Tech70)
		if err != nil {
			log.Fatal(err)
		}
		t.AddRow(e.Geometry.Name(),
			fmt.Sprintf("%.1f", e.AccessEnergy),
			fmt.Sprintf("%.2f", e.CycleTime),
			fmt.Sprintf("%.0f", e.FrequencyMHz()),
			fmt.Sprintf("%.2f", e.PowerWatts(e.FrequencyMHz())))
	}
	fmt.Println(t)
}
