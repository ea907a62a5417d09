// Package power is the repository's stand-in for CACTI/eCACTI: an
// analytical model that converts a cache geometry (size, associativity,
// line size, ports) into dynamic energy per access and cycle time at a
// 70 nm process, the way the paper's Table 4 uses CACTI.
//
// The model follows CACTI's structure — decoder, wordline, bitline,
// sense-amp, wire (H-tree), tag path, comparator and way-mux stages over
// a sub-banked array, with a discrete search over wordline/bitline
// partitioning — with simplified RC constants calibrated against the
// paper's 8 MB Table 4 anchors:
//
//   - 8 MB DM, 4 ports: ~5 ns cycle, ~28 nJ/access (paper: 199 MHz, 4.93 W);
//   - energy/access grows with associativity (paper: 4.93 -> 7.66 W at
//     4-way), which is the paper's argument against high-associativity
//     partitioned caches;
//   - cycle time collapses at 8-way on multi-megabyte arrays (paper:
//     96 MHz vs ~200 MHz), making the 8-way's *power* lower;
//   - an 8 KB direct-mapped molecule costs ~0.4 nJ per probe, ~65x less
//     than the monolithic bank, which is what selective enablement banks on.
//
// Absolute watts are not expected to match CACTI; Table 4's orderings and
// ratios are (see EXPERIMENTS.md).
package power

import (
	"fmt"
	"math"

	"molcache/internal/addr"
)

// Tech holds process-dependent model constants. Energies are in nJ per
// activated unit, delays in ns per unit.
type Tech struct {
	// Name identifies the node, e.g. "70nm".
	Name string

	// Energy coefficients (nJ).
	DecodeEnergyPerBit   float64 // per decoded address bit
	WordlineEnergyPerCol float64
	BitlineEnergyPerCell float64 // per cell in the active subarray
	SenseEnergyPerCol    float64
	ReadoutEnergyPerBit  float64 // per way-line bit, scaled by array side
	WireEnergyPerSide    float64 // H-tree, per sqrt(total bits)
	OutputEnergyPerBit   float64 // per data-out bit, scaled by array side
	CompareEnergyPerBit  float64 // per tag bit per way

	// Delay coefficients (ns).
	DecodeDelayPerBit   float64
	WordlineDelayPerCol float64 // per sqrt(subarray columns)
	BitlineDelayPerRow  float64
	WireDelayPerSide    float64 // per sqrt(total bits)
	SenseDelay          float64
	CompareDelay        float64 // per log2(assoc)+1
	MuxDelayPerWayPair  float64 // per assoc*(assoc-1): way-select fan-in

	// PortEnergyExp scales energy by ports^PortEnergyExp.
	PortEnergyExp float64
	// PortDelayFactor adds (ports-1)*PortDelayFactor fractional delay.
	PortDelayFactor float64
}

// Tech70 models the paper's 0.07 um process, fitted to the Table 4
// anchors described in the package comment.
var Tech70 = Tech{
	Name:                 "70nm",
	DecodeEnergyPerBit:   0.012,
	WordlineEnergyPerCol: 0.00006,
	BitlineEnergyPerCell: 0.000002,
	SenseEnergyPerCol:    0.0002,
	ReadoutEnergyPerBit:  0.001,
	WireEnergyPerSide:    0.00043,
	OutputEnergyPerBit:   0.0002,
	CompareEnergyPerBit:  0.004,
	DecodeDelayPerBit:    0.055,
	WordlineDelayPerCol:  0.009,
	BitlineDelayPerRow:   0.0003,
	WireDelayPerSide:     0.00022,
	SenseDelay:           0.20,
	CompareDelay:         0.18,
	MuxDelayPerWayPair:   0.08,
	PortEnergyExp:        1.25,
	PortDelayFactor:      0.12,
}

// referenceSide normalizes the wire-length scaling of readout and output
// energy; it is the side (sqrt of bits) of the 8 MB calibration array.
const referenceSide = 8192.0

// Geometry describes one cache bank to model.
type Geometry struct {
	// SizeBytes is the bank capacity (power of two).
	SizeBytes uint64
	// Assoc is the associativity (1 = direct mapped).
	Assoc int
	// LineBytes is the block size (power of two).
	LineBytes uint64
	// Ports is the number of read/write ports (>= 1).
	Ports int
}

// Name renders the geometry the way the paper's tables do
// ("8MB DM", "8MB 4-way").
func (g Geometry) Name() string {
	if g.Assoc == 1 {
		return addr.Bytes(g.SizeBytes) + " DM"
	}
	return fmt.Sprintf("%s %d-way", addr.Bytes(g.SizeBytes), g.Assoc)
}

// Validate checks the geometry.
func (g Geometry) Validate() error {
	if err := addr.CheckPow2("size", g.SizeBytes); err != nil {
		return err
	}
	if err := addr.CheckPow2("line size", g.LineBytes); err != nil {
		return err
	}
	if g.Assoc < 1 || !addr.IsPow2(uint64(g.Assoc)) {
		return fmt.Errorf("power: assoc must be a positive power of two, got %d", g.Assoc)
	}
	if g.Ports < 1 {
		return fmt.Errorf("power: ports must be >= 1, got %d", g.Ports)
	}
	if g.SizeBytes/g.LineBytes/uint64(g.Assoc) == 0 {
		return fmt.Errorf("power: geometry has no sets (size %d, line %d, assoc %d)",
			g.SizeBytes, g.LineBytes, g.Assoc)
	}
	return nil
}

// Estimate is the model output for one geometry.
type Estimate struct {
	Geometry Geometry
	// AccessEnergy is the dynamic energy of one access in nJ.
	AccessEnergy float64
	// CycleTime is the access cycle in ns.
	CycleTime float64
	// Ndwl and Ndbl are the chosen wordline/bitline partitioning.
	Ndwl, Ndbl int
	// TagEnergy and DataEnergy decompose AccessEnergy.
	TagEnergy, DataEnergy float64
}

// FrequencyMHz is the clock implied by the cycle time.
func (e Estimate) FrequencyMHz() float64 { return 1000 / e.CycleTime }

// PowerWatts returns dynamic power assuming one access per cycle at
// freqMHz — the paper's operating assumption when comparing caches at the
// traditional cache's frequency.
func (e Estimate) PowerWatts(freqMHz float64) float64 {
	// nJ * MHz = mW; convert to W.
	return e.AccessEnergy * freqMHz / 1000
}

// physicalAddressBits is the modelled physical address width.
const physicalAddressBits = 40

// Model runs the partitioning search and returns the best estimate
// (minimum cycle time, energy as the tie-break, matching CACTI's
// time-first optimization).
func Model(g Geometry, t Tech) (Estimate, error) {
	if err := g.Validate(); err != nil {
		return Estimate{}, err
	}
	best := Estimate{}
	found := false
	for _, ndwl := range []int{1, 2, 4, 8, 16, 32} {
		for _, ndbl := range []int{1, 2, 4, 8, 16, 32, 64} {
			e, ok := evaluate(g, t, ndwl, ndbl)
			if !ok {
				continue
			}
			if !found ||
				e.CycleTime < best.CycleTime-1e-12 ||
				(math.Abs(e.CycleTime-best.CycleTime) < 1e-12 && e.AccessEnergy < best.AccessEnergy) {
				best = e
				found = true
			}
		}
	}
	if !found {
		return Estimate{}, fmt.Errorf("power: no feasible organization for %+v", g)
	}
	return best, nil
}

// evaluate scores one (Ndwl, Ndbl) organization. ok=false marks
// infeasible splits (sub-array degenerates).
func evaluate(g Geometry, t Tech, ndwl, ndbl int) (Estimate, bool) {
	sets := float64(g.SizeBytes / g.LineBytes / uint64(g.Assoc))
	lineBits := float64(8 * g.LineBytes)
	rowBits := lineBits * float64(g.Assoc) // bits per logical data row
	subRows := sets / float64(ndbl)
	subCols := rowBits / float64(ndwl)
	if subRows < 8 || subCols < 64 {
		return Estimate{}, false
	}
	idxBits := math.Log2(sets)
	tagBits := physicalAddressBits - idxBits - math.Log2(float64(g.LineBytes))
	if tagBits < 1 {
		tagBits = 1
	}
	// side is the physical scale of the data array: wire lengths (H-tree
	// routing, line readout, output drive) grow with it.
	side := math.Sqrt(float64(8 * g.SizeBytes))
	sideFactor := side / referenceSide

	// Data array energy: decode, one subarray's wordline/bitlines/sense
	// amps, per-way line readout to the way mux, H-tree wires, and the
	// final output drive.
	dataE := t.DecodeEnergyPerBit*idxBits +
		t.WordlineEnergyPerCol*subCols +
		t.BitlineEnergyPerCell*subCols*subRows +
		t.SenseEnergyPerCol*subCols +
		t.ReadoutEnergyPerBit*lineBits*float64(g.Assoc)*sideFactor +
		t.WireEnergyPerSide*side +
		t.OutputEnergyPerBit*lineBits*sideFactor

	// Tag array: narrow (tagBits+2 status bits per way, unsplit), same
	// bitline discipline, plus the per-way comparators.
	tagCols := (tagBits + 2) * float64(g.Assoc)
	tagE := t.DecodeEnergyPerBit*idxBits +
		t.WordlineEnergyPerCol*tagCols +
		t.BitlineEnergyPerCell*tagCols*subRows +
		t.SenseEnergyPerCol*tagCols +
		t.CompareEnergyPerBit*tagBits*float64(g.Assoc)

	portMul := math.Pow(float64(g.Ports), t.PortEnergyExp)
	energy := (dataE + tagE) * portMul

	// Delay: decode -> wordline -> bitline -> wire -> sense, then tag
	// compare and the way multiplexer whose fan-in grows with
	// associativity. The quadratic mux term reproduces CACTI's 8-way
	// frequency cliff on multi-megabyte arrays.
	a := float64(g.Assoc)
	delay := t.DecodeDelayPerBit*idxBits +
		t.WordlineDelayPerCol*math.Sqrt(subCols) +
		t.BitlineDelayPerRow*subRows +
		t.WireDelayPerSide*side +
		t.SenseDelay +
		t.CompareDelay*(math.Log2(a)+1) +
		t.MuxDelayPerWayPair*a*(a-1)
	delay *= 1 + t.PortDelayFactor*float64(g.Ports-1)

	return Estimate{
		Geometry:     g,
		AccessEnergy: energy,
		CycleTime:    delay,
		Ndwl:         ndwl,
		Ndbl:         ndbl,
		TagEnergy:    tagE * portMul,
		DataEnergy:   dataE * portMul,
	}, true
}
