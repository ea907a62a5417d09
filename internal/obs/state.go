// Package obs is the live observability plane: an introspection HTTP
// server (Prometheus metrics, region topology, resize decisions, an SSE
// event stream, pprof) that serves States from a source its caller
// supplies, a publisher for commands that push States, and the shared
// observability flag set every CLI mounts.
//
// The concurrency contract keeps the deterministic simulation single-
// threaded: HTTP handlers never touch live simulation objects
// themselves. Each request asks Options.State for a State, and the
// source decides how one is made safely. molsim's simulation runs on
// one goroutine with no lock, so it calls Collect + Publish at points
// of its choosing (every N accesses, end of run) and serves
// Publisher.Latest, the last published State behind an atomic pointer.
// molcached guards its simulator with one lock, so its source takes
// that lock and runs Collect, and every response reads the server as it
// stands. While the source has no State (sweep and experiments never
// publish one), /metrics serves the registry's AtomicSnapshot
// (counters/gauges/histograms only — registry funcs read sim state and
// stay with its owner). This package is on molvet's concurrency
// allow-list; the simulation packages it observes are not, and stay
// free of goroutines.
package obs

import (
	"sync/atomic"
	"time"

	"molcache/internal/molecular"
	"molcache/internal/resize"
	"molcache/internal/telemetry"
)

// TileCount is one tile's share of a region's molecules.
type TileCount struct {
	Tile      int `json:"tile"`
	Molecules int `json:"molecules"`
}

// RegionInfo is the served view of one per-ASID region: topology,
// occupancy, miss rate vs. goal, and the last resize action taken on it.
type RegionInfo struct {
	ASID       uint16 `json:"asid"`
	HomeTile   int    `json:"home_tile"`
	Policy     string `json:"policy"`
	LineFactor int    `json:"line_factor"`

	Molecules    int         `json:"molecules"`
	AvgMolecules float64     `json:"avg_molecules"`
	Rows         []int       `json:"rows"`
	Tiles        []TileCount `json:"tiles"`

	Accesses       uint64  `json:"accesses"`
	MissRate       float64 `json:"miss_rate"`
	WindowMissRate float64 `json:"window_miss_rate"`
	Goal           float64 `json:"goal,omitempty"`
	// Deviation is MissRate - Goal (only meaningful with a goal set):
	// positive means the partition is missing its QoS target.
	Deviation float64 `json:"deviation,omitempty"`

	LastResize *resize.Decision `json:"last_resize,omitempty"`
}

// TenantInfo is the served view of one molcached tenant: the
// name-to-ASID binding, its SLO goal, stored-key count and the region
// stats that tell whether the goal is being met. The serving layer
// (internal/server) fills these in after Collect; simulators without a
// tenant table leave the slice nil and /tenants serves an empty list.
type TenantInfo struct {
	Name           string  `json:"name"`
	ASID           uint16  `json:"asid"`
	Goal           float64 `json:"goal"`
	LineFactor     int     `json:"line_factor,omitempty"`
	Keys           int     `json:"keys"`
	Molecules      int     `json:"molecules"`
	Accesses       uint64  `json:"accesses"`
	MissRate       float64 `json:"miss_rate"`
	WindowMissRate float64 `json:"window_miss_rate"`
	// SLOMet reports whether the windowed miss rate is within the goal.
	SLOMet bool `json:"slo_met"`
}

// State is one immutable snapshot of the simulation, built by Collect
// on the goroutine (or under the lock) that owns the cache and served
// read-only by the HTTP handlers. The decision log and tenant table are
// kept out of the /regions payload (each has its own endpoint) via the
// json:"-" tag.
type State struct {
	Cache string `json:"cache,omitempty"`
	At    uint64 `json:"at"`
	// Taken is the wall-clock time Collect built the state; /healthz
	// reports its age, and the deterministic simulation never reads it.
	Taken         time.Time    `json:"-"`
	Accesses      uint64       `json:"accesses"`
	MissRate      float64      `json:"miss_rate"`
	FreeMolecules int          `json:"free_molecules"`
	RemoteCycles  uint64       `json:"remote_cycles"`
	Regions       []RegionInfo `json:"regions"`

	Tenants        []TenantInfo       `json:"-"`
	Decisions      []resize.Decision  `json:"-"`
	DecisionsTotal uint64             `json:"-"`
	Metrics        telemetry.Snapshot `json:"-"`
}

// Publisher hands immutable States from the simulation goroutine to the
// HTTP handlers of a command that pushes them (Options.State:
// Publisher.Latest). Publish/Latest are safe from any goroutine; a nil
// *Publisher is valid and always Latest()s nil.
type Publisher struct {
	cur atomic.Pointer[State]
}

// NewPublisher returns an empty publisher.
func NewPublisher() *Publisher { return &Publisher{} }

// Publish installs s as the latest state. The caller must not mutate s
// (or anything reachable from it) afterwards.
func (p *Publisher) Publish(s *State) {
	if p == nil {
		return
	}
	p.cur.Store(s)
}

// Latest returns the most recently published state (nil before the
// first publish, or on a nil publisher).
func (p *Publisher) Latest() *State {
	if p == nil {
		return nil
	}
	return p.cur.Load()
}

// Collect builds an immutable State from the live simulation objects.
// It MUST run on the goroutine that owns the cache, or under the lock
// that guards it — it walks regions and evaluates registry funcs. Any
// argument may be nil; the corresponding sections come back empty.
func Collect(c *molecular.Cache, ctrl *resize.Controller, reg *telemetry.Registry) *State {
	s := &State{Taken: time.Now()}
	if ctrl != nil {
		// The controller's log is shared and read-only, and copies only
		// the decisions recorded since the last call: a State's slice
		// is never written after Collect returns it.
		s.Decisions = ctrl.Decisions()
		s.DecisionsTotal = ctrl.DecisionCount()
	}
	if c != nil {
		s.Cache = c.Name()
		s.At = c.Addresses()
		led := c.Ledger()
		s.Accesses = led.Total.Accesses()
		s.MissRate = led.Total.MissRate()
		s.FreeMolecules = c.FreeMolecules()
		s.RemoteCycles = c.RemoteCycles()
		regions := c.Regions()
		lastByASID := lastResizes(s.Decisions, regions)
		for _, r := range regions {
			ri := RegionInfo{
				ASID:           r.ASID(),
				HomeTile:       r.HomeTile().ID(),
				Policy:         string(r.Policy()),
				LineFactor:     r.LineFactor(),
				Molecules:      r.MoleculeCount(),
				AvgMolecules:   r.AverageMolecules(),
				Rows:           r.Rows(),
				Accesses:       r.Ledger().Accesses(),
				MissRate:       r.Ledger().MissRate(),
				WindowMissRate: r.Window().Snapshot().MissRate(),
			}
			// TileCounts is a map; emit a tile-sorted slice so the JSON
			// is deterministic.
			counts := r.TileCounts()
			tiles := make([]int, 0, len(counts))
			for t := range counts {
				tiles = append(tiles, t)
			}
			sortInts(tiles)
			for _, t := range tiles {
				ri.Tiles = append(ri.Tiles, TileCount{Tile: t, Molecules: counts[t]})
			}
			if ctrl != nil {
				ri.Goal = ctrl.Goal(r.ASID())
				if ri.Goal > 0 {
					ri.Deviation = ri.MissRate - ri.Goal
				}
				ri.LastResize = lastByASID[r.ASID()]
			}
			s.Regions = append(s.Regions, ri)
		}
	}
	// The full snapshot (registry funcs included) is safe here: Collect
	// runs where the cache may be read, by contract.
	s.Metrics = reg.Snapshot()
	return s
}

// lastResizes returns each region's most recent decision in decs,
// walking back from the newest only until every region has one.
func lastResizes(decs []resize.Decision, regions []*molecular.Region) map[uint16]*resize.Decision {
	last := make(map[uint16]*resize.Decision, len(regions))
	pending := make(map[uint16]bool, len(regions))
	for _, r := range regions {
		pending[r.ASID()] = true
	}
	for i := len(decs) - 1; i >= 0 && len(pending) > 0; i-- {
		if d := &decs[i]; pending[d.ASID] {
			last[d.ASID] = d
			delete(pending, d.ASID)
		}
	}
	return last
}

// sortInts is a dependency-free insertion sort (tile lists are tiny).
func sortInts(v []int) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
