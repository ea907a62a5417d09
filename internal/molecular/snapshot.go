package molecular

import (
	"fmt"
	"math"
	"sort"

	"molcache/internal/rng"
	"molcache/internal/stats"
)

// This file is the checkpoint layer for the cache core: CaptureState
// walks every structure whose contents influence future accesses into a
// pure-data CacheState, and RestoreCache rebuilds a byte-identical
// continuation from one. The split between what is serialized in order
// and what is rebuilt follows from what the access path can observe:
//
//   - Tile free lists are LIFO and takeFree pops the top, so free-list
//     ORDER is observable — it is serialized as stored.
//   - Replacement rows are indexed by src.Intn(len(row)), so row order
//     and row membership order are observable — rows are serialized as
//     ordered molecule-ID lists.
//   - byTile order is NOT observable (the holder of a block is unique
//     within a region and probe counts use len), so the per-tile slices
//     are rebuilt row-major.
//   - The block index is derived state; it is rebuilt from the restored
//     lines via indexMolecule.
//
// RestoreCache treats its input as untrusted (it may come from a
// corrupted checkpoint file): every cross-reference is validated and
// violations surface as errors, never panics. It deliberately bypasses
// attach()/CreateRegion — both panic on inconsistency by design — and
// finishes with the full CheckInvariants audit, the one a restore runs,
// so deep corruption that slips past field validation is still caught
// before the engine resumes.

// LineState is one resident line of a molecule (invalid slots are
// omitted; Slot identifies the direct-mapped entry). Touch is the
// line's LRU-Direct timestamp, written by LRU-Direct caches only; the
// other policies never read it, so RestoreCache ignores a touch in
// their checkpoints (builds that stamped every line wrote one there).
type LineState struct {
	Slot  int    `json:"slot"`
	Tag   uint64 `json:"tag"`
	Dirty bool   `json:"dirty,omitempty"`
	Touch uint64 `json:"touch,omitempty"`
}

// MolState is one molecule's complete serialized state.
type MolState struct {
	ID   int    `json:"id"`
	ASID uint16 `json:"asid,omitempty"`
	// Shared is the paper's shared bit, which this simulator does not
	// model: CaptureState never sets it, and RestoreCache refuses a
	// checkpoint that does, since continuing without shared semantics
	// would not reproduce the run that wrote it.
	Shared    bool        `json:"shared,omitempty"`
	Owned     bool        `json:"owned,omitempty"`
	Failed    bool        `json:"failed,omitempty"`
	Row       int         `json:"row"`
	MissCount uint64      `json:"miss_count,omitempty"`
	Lines     []LineState `json:"lines,omitempty"`
}

// RegionSnap is one region's serialized state. Policy, line size and
// molecule size are config-derived and not repeated here; LineFactor is
// kept because CreateRegion can override the config default per region.
// The region's lifetime counts are its ASID's entry in LedgerApps, and
// Window holds the counts since the resize controller last rolled it.
type RegionSnap struct {
	ASID         uint16        `json:"asid"`
	HomeTile     int           `json:"home_tile"`
	LineFactor   int           `json:"line_factor"`
	Rows         [][]int       `json:"rows"`
	RowMiss      []uint64      `json:"row_miss"`
	Window       stats.HitMiss `json:"window"`
	OccupancySum uint64        `json:"occupancy_sum"`
	RNG          [4]uint64     `json:"rng"`
}

// AppLedger is one ASID's cell of the cache-wide ledger.
type AppLedger struct {
	ASID uint16        `json:"asid"`
	HM   stats.HitMiss `json:"hm"`
}

// CacheState is the complete serialized simulation state of a Cache.
// Geometry (clusters, tiles, molecule/line sizes) is carried by the
// Config, which travels alongside in the checkpoint.
type CacheState struct {
	Addresses    uint64           `json:"addresses"`
	NextHome     int              `json:"next_home"`
	RemoteCycles uint64           `json:"remote_cycles"`
	RNG          [4]uint64        `json:"rng"`
	Probes       stats.Histogram  `json:"probes"`
	Global       stats.HitMiss    `json:"global"`
	LedgerTotal  stats.HitMiss    `json:"ledger_total"`
	LedgerApps   []AppLedger      `json:"ledger_apps"`
	Degradation  DegradationStats `json:"degradation"`
	// FreeLists holds each tile's free pool as molecule IDs in stored
	// (bottom-to-top) order; index = global tile ID.
	FreeLists [][]int      `json:"free_lists"`
	Molecules []MolState   `json:"molecules"`
	Regions   []RegionSnap `json:"regions"`
}

// CaptureState serializes the cache's complete simulation state. The
// walk is read-only and deterministic (regions in ASID order, molecules
// in ID order, ledger apps in ASID order).
func (c *Cache) CaptureState() CacheState {
	st := CacheState{
		Addresses:    c.addresses,
		NextHome:     c.nextHome,
		RemoteCycles: c.remoteCycles,
		RNG:          c.src.State(),
		Probes: stats.Histogram{
			Buckets: append([]uint64(nil), c.probes.Buckets...),
			Count:   c.probes.Count,
			Sum:     c.probes.Sum,
		},
		Global:      c.global.Snapshot(),
		LedgerTotal: c.ledger.Total,
		Degradation: c.deg,
	}
	for _, asid := range c.ledger.ASIDs() {
		st.LedgerApps = append(st.LedgerApps, AppLedger{ASID: asid, HM: c.ledger.App(asid)})
	}
	st.FreeLists = make([][]int, c.cfg.Clusters*c.cfg.TilesPerCluster)
	for _, cl := range c.clusters {
		for _, t := range cl.tiles {
			ids := make([]int, len(t.free))
			for i, m := range t.free {
				ids[i] = m.id
			}
			st.FreeLists[t.id] = ids
		}
	}
	st.Molecules = make([]MolState, len(c.molsByID))
	for i, m := range c.molsByID {
		ms := MolState{
			ID: m.id, ASID: m.asid, Owned: m.owned, Failed: m.failed,
			Row: m.row, MissCount: m.missCount,
		}
		base := m.id << c.slotBits
		for slot := range m.lines {
			ln := c.lines[base+slot]
			if !ln.valid() {
				continue
			}
			ls := LineState{Slot: slot, Tag: ln.block(), Dirty: ln.dirty()}
			if c.touch != nil {
				ls.Touch = c.touch[base+slot]
			}
			ms.Lines = append(ms.Lines, ls)
		}
		st.Molecules[i] = ms
	}
	for _, r := range c.Regions() {
		rs := RegionSnap{
			ASID:         r.asid,
			HomeTile:     r.home.id,
			LineFactor:   r.lineFactor,
			Rows:         r.RowMolecules(),
			RowMiss:      r.RowMissCounts(),
			Window:       r.window.Snapshot(),
			OccupancySum: r.occupancySum,
			RNG:          r.src.State(),
		}
		st.Regions = append(st.Regions, rs)
	}
	return st
}

// RestoreCache rebuilds a cache from a captured state, validating every
// cross-reference. On success the returned cache is a byte-identical
// continuation of the captured one; on any inconsistency it returns an
// error describing the violation (never panics). Telemetry and fault
// attachments are NOT restored here — callers re-attach them and then
// load the telemetry snapshot.
func RestoreCache(cfg Config, st CacheState) (*Cache, error) {
	c, err := New(cfg)
	if err != nil {
		return nil, fmt.Errorf("molecular: restore: %w", err)
	}
	total := c.TotalMolecules()
	if len(st.Molecules) != total {
		return nil, fmt.Errorf("molecular: restore: state has %d molecules, geometry has %d",
			len(st.Molecules), total)
	}
	tiles := cfg.Clusters * cfg.TilesPerCluster
	if len(st.FreeLists) != tiles {
		return nil, fmt.Errorf("molecular: restore: state has %d free lists, geometry has %d tiles",
			len(st.FreeLists), tiles)
	}

	// Molecule contents first: every later structure references them.
	maxBlock := uint64(math.MaxUint64) >> c.lineShift
	for i := range st.Molecules {
		ms := &st.Molecules[i]
		if ms.ID != i {
			return nil, fmt.Errorf("molecular: restore: molecule entry %d carries ID %d", i, ms.ID)
		}
		m := c.molsByID[i]
		if ms.Shared {
			return nil, fmt.Errorf("molecular: restore: molecule %d has the shared bit set, which this simulator does not model", i)
		}
		if ms.Failed && ms.Owned {
			return nil, fmt.Errorf("molecular: restore: molecule %d both failed and owned", i)
		}
		if ms.Failed && len(ms.Lines) > 0 {
			return nil, fmt.Errorf("molecular: restore: retired molecule %d holds %d lines", i, len(ms.Lines))
		}
		if ms.Owned && (ms.Row < 0 || ms.Row >= maxRows) {
			return nil, fmt.Errorf("molecular: restore: molecule %d row %d outside [0,%d)", i, ms.Row, maxRows)
		}
		m.asid = ms.ASID
		m.owned = ms.Owned
		m.failed = ms.Failed
		m.row = ms.Row
		if !ms.Owned {
			m.row = -1
		}
		m.missCount = ms.MissCount
		base := i << c.slotBits
		prevSlot := -1
		for _, ln := range ms.Lines {
			if ln.Slot < 0 || ln.Slot >= len(m.lines) {
				return nil, fmt.Errorf("molecular: restore: molecule %d line slot %d outside molecule of %d lines",
					i, ln.Slot, len(m.lines))
			}
			if ln.Slot <= prevSlot {
				return nil, fmt.Errorf("molecular: restore: molecule %d line slots not strictly ascending at %d",
					i, ln.Slot)
			}
			prevSlot = ln.Slot
			// A line's tag must map to the slot it sits in, or every
			// future probe of that tag would look in the wrong slot.
			if m.index(ln.Tag) != ln.Slot {
				return nil, fmt.Errorf("molecular: restore: molecule %d tag %#x maps to slot %d, stored in %d",
					i, ln.Tag, m.index(ln.Tag), ln.Slot)
			}
			if ln.Tag > maxBlock {
				return nil, fmt.Errorf("molecular: restore: molecule %d slot %d tag %#x exceeds the largest block %#x of %d-byte lines",
					i, ln.Slot, ln.Tag, maxBlock, cfg.LineSize)
			}
			c.lines[base+ln.Slot] = lineWord(ln.Tag, ln.Dirty)
			if c.touch != nil {
				c.touch[base+ln.Slot] = ln.Touch
			}
		}
		m.resident = len(ms.Lines)
	}

	// Free pools: cleared, then rebuilt in the captured LIFO order.
	seenFree := make(map[int]bool, total)
	for _, cl := range c.clusters {
		for _, t := range cl.tiles {
			t.free = t.free[:0]
			for _, id := range st.FreeLists[t.id] {
				if id < 0 || id >= total {
					return nil, fmt.Errorf("molecular: restore: tile %d free list names molecule %d outside [0,%d)",
						t.id, id, total)
				}
				m := c.molsByID[id]
				if m.tile != t {
					return nil, fmt.Errorf("molecular: restore: molecule %d on tile %d free list but sits on tile %d",
						id, t.id, m.tile.id)
				}
				if m.owned || m.failed {
					return nil, fmt.Errorf("molecular: restore: molecule %d on free list but owned=%v failed=%v",
						id, m.owned, m.failed)
				}
				if seenFree[id] {
					return nil, fmt.Errorf("molecular: restore: molecule %d on a free list twice", id)
				}
				seenFree[id] = true
				t.free = append(t.free, m)
			}
		}
	}

	// Regions: constructed directly (attach/CreateRegion panic on
	// inconsistency and must not see untrusted input), byTile rebuilt
	// row-major, block index rebuilt from the restored lines.
	seenOwned := make(map[int]uint16, total)
	for ri := range st.Regions {
		rs := &st.Regions[ri]
		if c.regions.get(rs.ASID) != nil {
			return nil, fmt.Errorf("molecular: restore: region for ASID %d appears twice", rs.ASID)
		}
		if rs.HomeTile < 0 || rs.HomeTile >= tiles {
			return nil, fmt.Errorf("molecular: restore: region %d home tile %d outside [0,%d)",
				rs.ASID, rs.HomeTile, tiles)
		}
		if rs.LineFactor < 1 || uint64(rs.LineFactor) > c.linesPerMol ||
			rs.LineFactor&(rs.LineFactor-1) != 0 {
			return nil, fmt.Errorf("molecular: restore: region %d line factor %d invalid for %d-line molecules",
				rs.ASID, rs.LineFactor, c.linesPerMol)
		}
		if len(rs.Rows) > maxRows {
			return nil, fmt.Errorf("molecular: restore: region %d has %d rows, max is %d",
				rs.ASID, len(rs.Rows), maxRows)
		}
		if len(rs.RowMiss) != len(rs.Rows) {
			return nil, fmt.Errorf("molecular: restore: region %d has %d rows but %d row-miss counters",
				rs.ASID, len(rs.Rows), len(rs.RowMiss))
		}
		home := c.clusters[rs.HomeTile/cfg.TilesPerCluster].tiles[rs.HomeTile%cfg.TilesPerCluster]
		r := &Region{
			asid:         rs.ASID,
			home:         home,
			policy:       cfg.Policy,
			lineFactor:   rs.LineFactor,
			molSize:      cfg.MoleculeSize,
			byTile:       make([][]*Molecule, tiles),
			index:        newBlockMap(c.lines, c.slotBits, total),
			rowMiss:      append([]uint64(nil), rs.RowMiss...),
			occupancySum: rs.OccupancySum,
			src:          rng.New(cfg.Seed ^ uint64(rs.ASID)<<20 ^ 0xbeef),
		}
		if err := r.src.SetState(rs.RNG); err != nil {
			return nil, fmt.Errorf("molecular: restore: region %d: %w", rs.ASID, err)
		}
		for rowIdx, rowIDs := range rs.Rows {
			if len(rowIDs) == 0 {
				return nil, fmt.Errorf("molecular: restore: region %d row %d empty", rs.ASID, rowIdx)
			}
			row := make([]*Molecule, 0, len(rowIDs))
			for _, id := range rowIDs {
				if id < 0 || id >= total {
					return nil, fmt.Errorf("molecular: restore: region %d names molecule %d outside [0,%d)",
						rs.ASID, id, total)
				}
				m := c.molsByID[id]
				if !m.owned || m.asid != rs.ASID {
					return nil, fmt.Errorf("molecular: restore: region %d row %d lists molecule %d with owned=%v asid=%d",
						rs.ASID, rowIdx, id, m.owned, m.asid)
				}
				if m.row != rowIdx {
					return nil, fmt.Errorf("molecular: restore: molecule %d row field %d but listed in region %d row %d",
						id, m.row, rs.ASID, rowIdx)
				}
				if prev, dup := seenOwned[id]; dup {
					return nil, fmt.Errorf("molecular: restore: molecule %d claimed by regions %d and %d",
						id, prev, rs.ASID)
				}
				seenOwned[id] = rs.ASID
				row = append(row, m)
				r.count++
			}
			r.rows = append(r.rows, row)
		}
		// byTile row-major (order unobservable), block index from lines.
		for _, row := range r.rows {
			for _, m := range row {
				r.byTile[m.tile.id] = append(r.byTile[m.tile.id], m)
				r.indexMolecule(m)
			}
		}
		r.appCell = c.ledger.AppRef(rs.ASID)
		c.regions.set(rs.ASID, r)
		c.regionList = append(c.regionList, r)
	}
	sort.Slice(c.regionList, func(i, j int) bool {
		return c.regionList[i].asid < c.regionList[j].asid
	})

	// Every owned molecule must have been claimed by exactly one region.
	for _, m := range c.molsByID {
		if !m.owned {
			continue
		}
		if _, ok := seenOwned[m.id]; !ok {
			return nil, fmt.Errorf("molecular: restore: molecule %d owned by ASID %d but listed in no region",
				m.id, m.asid)
		}
	}

	// Cache-wide counters, ledger and RNG.
	c.addresses = st.Addresses
	c.nextHome = st.NextHome
	c.remoteCycles = st.RemoteCycles
	c.deg = st.Degradation
	if err := c.src.SetState(st.RNG); err != nil {
		return nil, fmt.Errorf("molecular: restore: cache rng: %w", err)
	}
	if len(st.Probes.Buckets) != len(c.probes.Buckets) {
		return nil, fmt.Errorf("molecular: restore: probe histogram has %d buckets, geometry wants %d",
			len(st.Probes.Buckets), len(c.probes.Buckets))
	}
	copy(c.probes.Buckets, st.Probes.Buckets)
	c.probes.Count = st.Probes.Count
	c.probes.Sum = st.Probes.Sum
	c.ledger.Total = st.LedgerTotal
	prevASID := -1
	for _, app := range st.LedgerApps {
		if int(app.ASID) <= prevASID {
			return nil, fmt.Errorf("molecular: restore: ledger apps not in ascending ASID order at %d", app.ASID)
		}
		prevASID = int(app.ASID)
		c.ledger.SetApp(app.ASID, app.HM)
	}
	// The windows are marks on the restored ledger (SetApp kept the
	// cells AppRef handed the regions above), and each must fit in the
	// count it reads.
	if err := c.global.Restore(st.Global); err != nil {
		return nil, fmt.Errorf("molecular: restore: global window: %w", err)
	}
	for i := range st.Regions {
		r := c.regions.get(st.Regions[i].ASID)
		r.window = stats.NewWindow(r.appCell)
		if err := r.window.Restore(st.Regions[i].Window); err != nil {
			return nil, fmt.Errorf("molecular: restore: region %d window: %w", r.asid, err)
		}
	}

	// The deep gate: the full structural audit before the cache is
	// allowed to serve a single access.
	if vs := c.CheckInvariants(); len(vs) > 0 {
		return nil, fmt.Errorf("molecular: restore: %d invariant violations, first %s: %s",
			len(vs), vs[0].Rule, vs[0].Detail)
	}
	return c, nil
}
