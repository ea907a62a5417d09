// Package noc models the tile interconnection network the paper's
// Figure 2 leaves as a cloud: tiles (and the Ulmos fronting their
// clusters) sit on a 2-D mesh; requests that leave a home tile — Ulmo
// sweeps of sibling tiles, inter-cluster coherence — pay a hop latency
// and a wire energy per traversed link.
//
// The model is deliberately minimal (a message pays the Manhattan hop
// count, with no contention) because the paper's evaluation only needs
// the energy and latency *asymmetry* between local and remote
// molecules; it slots into the molecular cache's lookup and the power
// model's per-access energy.
package noc

import (
	"fmt"

	"molcache/internal/telemetry"
)

// Mesh is a W x H grid of nodes, one per tile, numbered row-major.
type Mesh struct {
	//molvet:transient construction geometry, re-supplied by New at restore
	w, h int
	// hopLatency is the per-link traversal cost in cycles.
	//molvet:transient construction cost model, re-supplied by New at restore
	hopLatency uint64
	// hopEnergy is the per-link traversal cost in nJ per transferred
	// line.
	//molvet:transient construction cost model, re-supplied by New at restore
	hopEnergy float64

	hops  uint64 // total link traversals accounted
	msgs  uint64 // total messages
	local uint64 // messages with zero hops

	// latHist, when a registry is attached, observes every message's
	// transit latency (telemetry.go).
	//molvet:transient telemetry attachment re-established after restore
	latHist *telemetry.Histogram
}

// New builds a w x h mesh. Defaults (when zero): 2-cycle links, 0.05 nJ
// per line per link at 70nm — in line with published on-chip network
// estimates of the era.
func New(w, h int, hopLatency uint64, hopEnergy float64) (*Mesh, error) {
	if w < 1 || h < 1 {
		return nil, fmt.Errorf("noc: mesh must be at least 1x1, got %dx%d", w, h)
	}
	if hopLatency == 0 {
		hopLatency = 2
	}
	if hopEnergy == 0 {
		hopEnergy = 0.05
	}
	return &Mesh{w: w, h: h, hopLatency: hopLatency, hopEnergy: hopEnergy}, nil
}

// MustNew is New panicking on error.
func MustNew(w, h int, hopLatency uint64, hopEnergy float64) *Mesh {
	m, err := New(w, h, hopLatency, hopEnergy)
	if err != nil {
		panic(err)
	}
	return m
}

// ForTiles builds a near-square mesh sized for n tiles.
func ForTiles(n int) (*Mesh, error) {
	if n < 1 {
		return nil, fmt.Errorf("noc: need at least one tile")
	}
	w := 1
	for w*w < n {
		w++
	}
	h := (n + w - 1) / w
	return New(w, h, 0, 0)
}

// Nodes returns the mesh capacity.
func (m *Mesh) Nodes() int { return m.w * m.h }

// coord maps a node id to grid coordinates.
func (m *Mesh) coord(id int) (x, y int, err error) {
	if id < 0 || id >= m.Nodes() {
		return 0, 0, fmt.Errorf("noc: node %d outside %dx%d mesh", id, m.w, m.h)
	}
	return id % m.w, id / m.w, nil
}

// Hops returns the Manhattan link count between two nodes.
func (m *Mesh) Hops(from, to int) (int, error) {
	fx, fy, err := m.coord(from)
	if err != nil {
		return 0, err
	}
	tx, ty, err := m.coord(to)
	if err != nil {
		return 0, err
	}
	return abs(fx-tx) + abs(fy-ty), nil
}

// Traverse accounts one message from -> to and returns its latency in
// cycles (0 for a local message).
func (m *Mesh) Traverse(from, to int) (uint64, error) {
	h, err := m.Hops(from, to)
	if err != nil {
		return 0, err
	}
	m.msgs++
	m.hops += uint64(h)
	if h == 0 {
		m.local++
	}
	lat := uint64(h) * m.hopLatency
	m.latHist.Observe(float64(lat))
	return lat, nil
}

// Stats reports accumulated traffic.
type Stats struct {
	// Messages is the number of accounted messages.
	Messages uint64
	// Hops is the total link traversals.
	Hops uint64
	// LocalMessages is the count of zero-hop messages.
	LocalMessages uint64
}

// Stats returns the accumulated traffic counters.
func (m *Mesh) Stats() Stats {
	return Stats{Messages: m.msgs, Hops: m.hops, LocalMessages: m.local}
}

// RestoreStats overwrites the traffic counters with a previously
// captured Stats (checkpoint restore). It rejects internally
// inconsistent counters so a corrupted snapshot cannot smuggle in a
// mesh that reports more local messages than messages.
func (m *Mesh) RestoreStats(s Stats) error {
	if s.LocalMessages > s.Messages {
		return fmt.Errorf("noc: %d local messages exceed %d total", s.LocalMessages, s.Messages)
	}
	m.msgs = s.Messages
	m.hops = s.Hops
	m.local = s.LocalMessages
	return nil
}

// Width and Height expose the grid dimensions (checkpoint geometry).
func (m *Mesh) Width() int  { return m.w }
func (m *Mesh) Height() int { return m.h }

// AverageHops returns mean hops per message.
func (m *Mesh) AverageHops() float64 {
	if m.msgs == 0 {
		return 0
	}
	return float64(m.hops) / float64(m.msgs)
}

// Energy returns the total wire energy (nJ) of the accounted traffic.
func (m *Mesh) Energy() float64 { return float64(m.hops) * m.hopEnergy }

// HopLatency exposes the per-link cycle cost.
func (m *Mesh) HopLatency() uint64 { return m.hopLatency }

// HopEnergy exposes the per-link energy cost in nJ.
func (m *Mesh) HopEnergy() float64 { return m.hopEnergy }

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
