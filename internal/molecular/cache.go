package molecular

import (
	"fmt"
	"math/bits"
	"sort"

	"molcache/internal/addr"
	"molcache/internal/engine"
	"molcache/internal/faults"
	"molcache/internal/rng"
	"molcache/internal/stats"
	"molcache/internal/telemetry"
	"molcache/internal/trace"
)

// Config describes a molecular cache.
type Config struct {
	// TotalSize is the aggregate capacity in bytes.
	TotalSize uint64
	// MoleculeSize is one molecule's capacity (8-32 KB per the paper;
	// default 8 KB).
	MoleculeSize uint64
	// LineSize is the base line size (default 64 B).
	LineSize uint64
	// TilesPerCluster groups tiles under one Ulmo (default 4).
	TilesPerCluster int
	// Clusters is the number of tile clusters (default 1).
	Clusters int
	// Policy selects molecule replacement (default Randy).
	Policy ReplacementKind
	// LineFactor is the number of base lines fetched per miss for new
	// regions (default 1; a power of two). Regions may override it at
	// creation.
	LineFactor int
	// InitialMolecules is a new region's starting allocation (default
	// half the home tile, per the paper's chosen scheme).
	InitialMolecules int
	// Seed drives the replacement randomness.
	Seed uint64
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.MoleculeSize == 0 {
		c.MoleculeSize = 8 * addr.KB
	}
	if c.LineSize == 0 {
		c.LineSize = 64
	}
	if c.TilesPerCluster == 0 {
		c.TilesPerCluster = 4
	}
	if c.Clusters == 0 {
		c.Clusters = 1
	}
	if c.Policy == "" {
		c.Policy = RandyReplacement
	}
	if c.LineFactor == 0 {
		c.LineFactor = 1
	}
	return c
}

// Validate checks the configuration (after defaulting).
func (c Config) Validate() error {
	// The total size need not be a power of two (the paper's mixed-
	// workload cache is 6 MB = 3 clusters x 2 MB); only the molecule
	// and line geometry index with masks.
	if c.TotalSize == 0 {
		return fmt.Errorf("molecular: total size must be positive")
	}
	if err := addr.CheckPow2("molecule size", c.MoleculeSize); err != nil {
		return err
	}
	if err := addr.CheckPow2("line size", c.LineSize); err != nil {
		return err
	}
	if c.LineSize < minLineSize {
		return fmt.Errorf("molecular: line size %d below %d bytes: a line word holds a block number of at most 62 bits",
			c.LineSize, minLineSize)
	}
	if c.LineFactor < 1 || !addr.IsPow2(uint64(c.LineFactor)) {
		return fmt.Errorf("molecular: line factor must be a power of two, got %d", c.LineFactor)
	}
	linesPerMol := c.MoleculeSize / c.LineSize
	if linesPerMol < uint64(c.LineFactor) || linesPerMol == 0 {
		return fmt.Errorf("molecular: molecule of %d lines cannot host line factor %d",
			linesPerMol, c.LineFactor)
	}
	total := c.TotalSize / c.MoleculeSize
	tiles := uint64(c.Clusters * c.TilesPerCluster)
	if tiles == 0 || total == 0 || total%tiles != 0 {
		return fmt.Errorf("molecular: %d molecules do not divide into %d tiles", total, tiles)
	}
	perTile := total / tiles
	if perTile < 2 {
		return fmt.Errorf("molecular: only %d molecules per tile; need >= 2", perTile)
	}
	if need := bits.Len64(total) + bits.Len64(linesPerMol-1); need > 32 {
		return fmt.Errorf("molecular: %d molecules of %d lines overflow the block index's 32-bit entry (molecule ID and line slot need %d bits)",
			total, linesPerMol, need)
	}
	if c.InitialMolecules < 0 || uint64(c.InitialMolecules) > perTile {
		return fmt.Errorf("molecular: initial allocation %d exceeds tile capacity %d",
			c.InitialMolecules, perTile)
	}
	switch c.Policy {
	case RandomReplacement, RandyReplacement, LRUDirect:
	default:
		return fmt.Errorf("molecular: unknown replacement policy %q", c.Policy)
	}
	return nil
}

// TileSize returns the per-tile capacity in bytes.
func (c Config) TileSize() uint64 {
	return c.TotalSize / uint64(c.Clusters*c.TilesPerCluster)
}

// MoleculesPerTile returns the tile's molecule count.
func (c Config) MoleculesPerTile() int {
	return int(c.TileSize() / c.MoleculeSize)
}

// Name renders the configuration the way the paper's tables do.
func (c Config) Name() string {
	return fmt.Sprintf("%s Molecular (%s)", addr.Bytes(c.TotalSize), c.Policy)
}

// Cache is a molecular cache: clusters of tiles of molecules, serving
// per-application regions. It implements engine.Cache.
type Cache struct {
	cfg      Config
	clusters []*Cluster
	// regions finds an ASID's region in constant time on every access;
	// every region read goes through regions.get.
	//molvet:transient lookup table rebuilt from the restored regions by RestoreCache
	regions regionTable
	// regionList mirrors regions sorted by ASID, so Contains, the audit
	// and the index gauges iterate deterministically without rebuilding
	// a slice per call.
	regionList []*Region
	// molsByID indexes every molecule by its global ID (fault targeting,
	// the audit, and the block indexes' slots, which name their molecule
	// by ID).
	molsByID []*Molecule
	// lines is every molecule's lines in one slab, molecule by molecule:
	// molecule id's slot s is lines[id<<slotBits | s]. Each molecule's
	// lines field is its run of the slab, and the block indexes confirm
	// their fingerprints against it.
	lines []molLine
	// touch parallels lines with LRU-Direct's timestamps: the logical
	// clock at each line's last fill or hit. Only an LRU-Direct cache
	// allocates it; nil otherwise.
	touch []uint64

	// refProbe routes lookups through the original linear probe scan
	// instead of the block index — the differential oracle the fast path
	// is locked against (UseReferenceProbe).
	//molvet:transient debug routing flag, not run state; set by UseReferenceProbe
	refProbe bool

	//molvet:transient derived from Config geometry at construction
	linesPerMol uint64
	// slotBits is log2(linesPerMol): a slab position is a molecule ID
	// shifted by it, plus a slot.
	//molvet:transient derived from Config geometry at construction
	slotBits uint
	// lineShift is log2(LineSize) — the config validator guarantees a
	// power of two, so the access path shifts instead of dividing.
	//molvet:transient derived from Config.LineSize at construction
	lineShift uint
	nextHome  int // round-robin auto-placement cursor

	// ledger is the one per-access hit/miss record: finish writes its
	// total and the accessing ASID's cell, and every other hit/miss
	// count reads it. A region's lifetime counts are its ASID's cell;
	// global is a mark on the total, and each region's window a mark on
	// its cell.
	ledger stats.Ledger
	global stats.Window
	probes *stats.Histogram
	// addresses counts the references serviced: the resize trigger's
	// input, and the logical clock line touches record for LRU-Direct.
	addresses uint64

	remoteCycles uint64
	// remote accumulates the NoC cycles charged by the access in flight;
	// finish folds it into remoteCycles once the modelled service time
	// has consumed it.
	//molvet:transient per-access scratch, zeroed at the start of every access
	remote uint64

	// tracer, reg and ins are the telemetry attachments (all nil by
	// default: the access path pays two pointer checks when disabled).
	//molvet:transient telemetry attachment re-established after restore
	tracer *telemetry.Tracer
	//molvet:transient telemetry attachment; registry state checkpoints via telemetry.Snapshot
	reg *telemetry.Registry
	//molvet:transient derived metric cells re-created when the registry is re-attached
	ins *instruments

	// faults, when attached, schedules hard failures, corruptions and
	// NoC delays against the access count; deg counts what was absorbed.
	//molvet:transient live attachment re-wired on restore; its cursors checkpoint via faults.CursorState
	faults *faults.Injector
	deg    DegradationStats

	src *rng.Source
}

var _ engine.Cache = (*Cache)(nil)

// regionTable maps ASIDs to regions. The paper's mixes interleave a
// dozen applications reference by reference, so the lookup itself must
// be constant-time, not a memo of the last one: ASIDs below
// stats.DenseASIDs (the bound the per-ASID ledger uses) index an array
// directly, and the rest — a served tenant numbered past it, say — fall
// back to an overflow map.
type regionTable struct {
	dense    [stats.DenseASIDs]*Region
	overflow map[uint16]*Region
}

// get returns asid's region, or nil: the one accessor every region
// read uses.
func (t *regionTable) get(asid uint16) *Region {
	if asid < stats.DenseASIDs {
		return t.dense[asid]
	}
	return t.overflow[asid]
}

// set binds asid to r.
func (t *regionTable) set(asid uint16, r *Region) {
	if asid < stats.DenseASIDs {
		t.dense[asid] = r
		return
	}
	if t.overflow == nil {
		t.overflow = make(map[uint16]*Region)
	}
	t.overflow[asid] = r
}

// New builds a molecular cache.
func New(cfg Config) (*Cache, error) {
	cfg = cfg.withDefaults()
	if cfg.InitialMolecules == 0 {
		cfg.InitialMolecules = cfg.MoleculesPerTile() / 2
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{
		cfg:         cfg,
		linesPerMol: cfg.MoleculeSize / cfg.LineSize,
		slotBits:    uint(bits.TrailingZeros64(cfg.MoleculeSize / cfg.LineSize)),
		lineShift:   uint(bits.TrailingZeros64(cfg.LineSize)),
		probes:      stats.NewHistogram(cfg.MoleculesPerTile()*cfg.TilesPerCluster + 1),
		src:         rng.New(cfg.Seed ^ 0x5eed),
	}
	c.global = stats.NewWindow(&c.ledger.Total)
	n := int(c.linesPerMol)
	c.lines = make([]molLine, c.TotalMolecules()*n)
	if cfg.Policy == LRUDirect {
		c.touch = make([]uint64, len(c.lines))
	}
	molID := 0
	for ci := 0; ci < cfg.Clusters; ci++ {
		cl := &Cluster{}
		for ti := 0; ti < cfg.TilesPerCluster; ti++ {
			t := &Tile{id: ci*cfg.TilesPerCluster + ti, cluster: cl, firstLine: molID * n}
			for mi := 0; mi < cfg.MoleculesPerTile(); mi++ {
				lo, hi := molID*n, (molID+1)*n
				m := &Molecule{
					id:    molID,
					tile:  t,
					lines: c.lines[lo:hi:hi],
					row:   -1,
				}
				if c.touch != nil {
					m.touch = c.touch[lo:hi:hi]
				}
				molID++
				t.molecules = append(t.molecules, m)
				t.free = append(t.free, m)
				c.molsByID = append(c.molsByID, m)
			}
			t.endLine = molID * n
			cl.tiles = append(cl.tiles, t)
		}
		c.clusters = append(c.clusters, cl)
	}
	return c, nil
}

// MustNew is New for static configurations; it panics on error.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Name implements engine.Cache.
func (c *Cache) Name() string { return c.cfg.Name() }

// Config returns the (defaulted) configuration.
func (c *Cache) Config() Config { return c.cfg }

// Clusters returns the cache's tile clusters.
func (c *Cache) Clusters() []*Cluster { return c.clusters }

// Ledger exposes per-ASID hit/miss counts.
func (c *Cache) Ledger() *stats.Ledger { return &c.ledger }

// GlobalWindow exposes the cache-wide resize window.
func (c *Cache) GlobalWindow() *stats.Window { return &c.global }

// ProbeHistogram exposes the per-access molecule-probe distribution, the
// input to the average-power calculation (Table 4's mixed-workload
// column).
func (c *Cache) ProbeHistogram() *stats.Histogram { return c.probes }

// Addresses returns the total references serviced (the resize-period
// trigger counts in these units).
func (c *Cache) Addresses() uint64 { return c.addresses }

// RegionOptions customizes CreateRegion.
type RegionOptions struct {
	// HomeCluster and HomeTile select placement; -1 means round-robin.
	HomeCluster, HomeTile int
	// InitialMolecules overrides the config default when > 0.
	InitialMolecules int
	// LineFactor overrides the config default when > 0. Fixed for the
	// region's lifetime, per the paper.
	LineFactor int
}

// CreateRegion creates and sizes the partition for asid. The paper's
// "Ground Zero": the initial allocation (default: half the home tile) is
// drawn from the home tile's free pool, falling back to cluster siblings.
func (c *Cache) CreateRegion(asid uint16, opts RegionOptions) (*Region, error) {
	if c.regions.get(asid) != nil {
		return nil, fmt.Errorf("molecular: region for ASID %d already exists", asid)
	}
	ci := opts.HomeCluster
	ti := opts.HomeTile
	if ci < 0 || ti < 0 {
		ci, ti = c.roundRobin()
	}
	if ci >= len(c.clusters) || ti >= c.cfg.TilesPerCluster {
		return nil, fmt.Errorf("molecular: placement (cluster %d, tile %d) out of range", ci, ti)
	}
	initial := c.cfg.InitialMolecules
	if opts.InitialMolecules > 0 {
		initial = opts.InitialMolecules
	}
	lf := c.cfg.LineFactor
	if opts.LineFactor > 0 {
		lf = opts.LineFactor
	}
	if !addr.IsPow2(uint64(lf)) || uint64(lf) > c.linesPerMol {
		return nil, fmt.Errorf("molecular: bad line factor %d", lf)
	}
	return c.admit(asid, c.clusters[ci].tiles[ti], initial, lf), nil
}

// roundRobin returns the next automatic placement's cluster and tile,
// always within the geometry.
func (c *Cache) roundRobin() (ci, ti int) {
	ci = c.nextHome % len(c.clusters)
	ti = (c.nextHome / len(c.clusters)) % c.cfg.TilesPerCluster
	c.nextHome++
	return ci, ti
}

// admit creates asid's region on home with the given initial size and
// line factor: CreateRegion once its checks have passed. Auto-admission
// on first touch calls it directly, since its round-robin placement and
// the config's validated defaults pass every one of those checks.
func (c *Cache) admit(asid uint16, home *Tile, initial, lf int) *Region {
	r := &Region{
		asid:       asid,
		home:       home,
		policy:     c.cfg.Policy,
		lineFactor: lf,
		molSize:    c.cfg.MoleculeSize,
		rows:       make([][]*Molecule, 0, maxRows),
		rowMiss:    make([]uint64, 0, maxRows),
		byTile:     make([][]*Molecule, c.cfg.Clusters*c.cfg.TilesPerCluster),
		index:      newBlockMap(c.lines, c.slotBits, len(c.molsByID)),
		src:        rng.New(c.cfg.Seed ^ uint64(asid)<<20 ^ 0xbeef),
	}
	r.appCell = c.ledger.AppRef(asid)
	r.window = stats.NewWindow(r.appCell)
	c.regions.set(asid, r)
	c.regionList = append(c.regionList, r)
	sort.Slice(c.regionList, func(i, j int) bool {
		return c.regionList[i].asid < c.regionList[j].asid
	})
	c.growSpread(r, initial)
	c.registerRegionGauges(r)
	if c.tracer != nil {
		c.tracer.Region(telemetry.KindRegionCreate, c.addresses, asid, r.count, r.count)
	}
	return r
}

// growSpread performs the initial allocation, spreading molecules
// round-robin over up to four rows so a Randy region starts with a
// non-trivial replacement view (Random regions stay single-row).
func (c *Cache) growSpread(r *Region, n int) {
	rows := 1
	if r.policy != RandomReplacement {
		rows = 4
		if n < rows {
			rows = n
		}
		if rows == 0 {
			rows = 1
		}
	}
	cl := r.home.cluster
	for i := 0; i < n; i++ {
		m := cl.takeFreePreferring(r.home)
		if m == nil {
			return
		}
		rowIdx := i % rows
		if rowIdx > len(r.rows) {
			rowIdx = len(r.rows)
		}
		r.attach(m, rowIdx)
	}
}

// Region returns the partition for asid, or nil.
func (c *Cache) Region(asid uint16) *Region { return c.regions.get(asid) }

// Regions returns all partitions sorted by ASID.
func (c *Cache) Regions() []*Region {
	return c.AppendRegions(make([]*Region, 0, len(c.regionList)))
}

// AppendRegions appends every partition, sorted by ASID, to dst and
// returns the extended slice: Regions without the allocation when dst
// has room, for callers that walk the partitions on every resize pass.
func (c *Cache) AppendRegions(dst []*Region) []*Region {
	return append(dst, c.regionList...)
}

// UseReferenceProbe switches lookups between the O(1) block index (the
// default) and the original linear probe scan. Both produce identical
// results, ledgers and telemetry — the linear model is kept as the
// differential oracle the fast path is tested against, and as the
// baseline the access benchmarks compare with.
func (c *Cache) UseReferenceProbe(on bool) { c.refProbe = on }

// ReferenceProbe reports whether the linear oracle path is active.
func (c *Cache) ReferenceProbe() bool { return c.refProbe }

// Grow allocates up to n molecules to region r from its home cluster,
// placing each per the policy's growth rule. It returns how many were
// actually obtained (the cluster may be exhausted — in that phase no
// resizing takes place, as the paper notes).
func (c *Cache) Grow(r *Region, n int) (got int, err error) {
	if n < 0 {
		return 0, fmt.Errorf("molecular: Grow with negative count %d", n)
	}
	cl := r.home.cluster
	for i := 0; i < n; i++ {
		m := cl.takeFreePreferring(r.home)
		if m == nil {
			break
		}
		// A thin last row is seeded to a useful width before anything
		// else grows: a thin row owns a full 1/rowMax slice of the
		// address space and thrashes until it is widened.
		row := r.growthRow()
		if last := len(r.rows) - 1; last >= 1 {
			avg := r.count / len(r.rows)
			if len(r.rows[last]) < avg/2 {
				row = last
			}
		}
		r.attach(m, row)
		got++
	}
	if got > 0 {
		if c.ins != nil {
			c.ins.grows.Add(uint64(got))
		}
		if c.tracer != nil {
			c.tracer.Region(telemetry.KindRegionGrow, c.addresses, r.asid, got, r.count)
		}
	}
	return got, nil
}

// Shrink withdraws up to n molecules (never below one), flushing each and
// returning it to its tile's free pool. It reports the number withdrawn
// and the dirty-line writebacks incurred.
func (c *Cache) Shrink(r *Region, n int) (withdrawn, writebacks int) {
	for i := 0; i < n; i++ {
		m := r.withdrawCandidate()
		if m == nil {
			break
		}
		writebacks += r.detach(m)
		m.tile.release(m)
		withdrawn++
	}
	if withdrawn > 0 {
		if c.ins != nil {
			c.ins.shrinks.Add(uint64(withdrawn))
			c.ins.writebacks.Add(uint64(writebacks))
		}
		if c.tracer != nil {
			c.tracer.Region(telemetry.KindRegionShrink, c.addresses, r.asid, -withdrawn, r.count)
		}
	}
	return withdrawn, writebacks
}

// Rebalance moves one molecule from the region's coldest row to its
// hottest row (by per-molecule replacement pressure) when the imbalance
// exceeds 4x and the cold row can spare a molecule. It lets a Randy
// region adapt its per-row associativity even when the cluster's free
// pool is exhausted and Grow cannot deliver. Returns whether a molecule
// moved; the moved molecule is flushed (writebacks counted by the move).
func (c *Cache) Rebalance(r *Region) bool {
	if r.policy == RandomReplacement || len(r.rows) < 2 {
		return false
	}
	hot, cold := -1, -1
	var hotScore, coldScore float64
	for i, row := range r.rows {
		score := float64(r.rowMiss[i]) / float64(len(row))
		if hot < 0 || score > hotScore {
			hot, hotScore = i, score
		}
		if len(row) > 2 && (cold < 0 || score < coldScore) {
			cold, coldScore = i, score
		}
	}
	// Demand a decisive imbalance: each move flushes a full molecule,
	// so marginal moves cost more refetches than they save.
	if hot < 0 || cold < 0 || hot == cold || hotScore < 4*coldScore+2 {
		return false
	}
	// Coldest molecule of the cold row moves to the hot row.
	row := r.rows[cold]
	m := row[0]
	for _, x := range row {
		if x.missCount < m.missCount {
			m = x
		}
	}
	// The cold row keeps >= 2 molecules, so no row empties and row
	// indices stay stable across the detach. The released molecule is
	// the tile free list's top, so it is re-acquired immediately.
	r.detach(m)
	m.tile.release(m)
	m2 := r.home.cluster.takeFreePreferring(r.home)
	if m2 == nil {
		return false
	}
	r.attach(m2, hot)
	if c.ins != nil {
		c.ins.rebalances.Inc()
	}
	if c.tracer != nil {
		c.tracer.Region(telemetry.KindRegionRebalance, c.addresses, r.asid, 0, r.count)
	}
	return true
}

// Access implements engine.Cache. Lookup is hierarchical: the molecules
// of the requestor's region on its home tile are probed first; on a tile
// miss the cluster's Ulmo probes the sibling tiles that contribute
// molecules to the region. A region is created on first touch
// (round-robin placement) if the application was never admitted
// explicitly.
//
// The default lookup consults the per-region block index (O(1) in the
// partition size) and computes the modelled TagProbes count from tile
// geometry; UseReferenceProbe(true) switches to the original linear
// molecule scan. Both paths produce identical results.
//
// Each access advances the cache's logical clock and delivers the
// faults scheduled for it before the lookup runs.
func (c *Cache) Access(ref trace.Ref) engine.Result {
	var res engine.Result
	c.AccessInto(ref, &res)
	return res
}

// AccessInto is Access writing the result through res, which it
// overwrites whole: a batch replay hands it each slot of its results
// slice, so the 56-byte result is neither returned by value nor copied.
func (c *Cache) AccessInto(ref trace.Ref, res *engine.Result) {
	*res = engine.Result{}
	c.addresses++
	c.remote = 0
	if c.faults != nil {
		c.applyScheduledFaults()
	}
	r := c.regions.get(ref.ASID)
	if r == nil {
		ci, ti := c.roundRobin()
		r = c.admit(ref.ASID, c.clusters[ci].tiles[ti], c.cfg.InitialMolecules, c.cfg.LineFactor)
	}
	block := ref.Addr >> c.lineShift
	write := kindIsWrite(ref.Kind)

	var unreachable bool
	if c.refProbe {
		unreachable = c.referenceLookup(r, block, write, res)
	} else {
		unreachable = c.fastLookup(r, block, write, res)
	}
	if res.Hit {
		c.finish(r, ref, res)
		return
	}

	// Miss: fetch lineFactor lines into the policy's victim molecule.
	if r.count == 0 {
		// Every molecule was retired out from under the region; try to
		// re-grow from healthy spares now rather than waiting for the
		// next resize epoch, and serve uncached if none exist.
		if got, _ := c.Grow(r, 1); got == 0 {
			c.bypassMiss(r, ref, res)
			return
		}
	}
	if unreachable {
		// A contributing tile never answered, so the line may still be
		// resident there; filling now could duplicate it. Serve uncached.
		c.bypassMiss(r, ref, res)
		return
	}
	victim := r.victim(ref.Addr, block)
	if r.lineFactor > 1 {
		c.invalidateCompanions(r, victim, block)
	}
	evicted, wb := r.fillVictim(victim, block, write, c.addresses)
	r.rowMiss[victim.row]++
	res.LinesFetched = r.lineFactor
	res.LinesEvicted = evicted
	res.Writebacks = wb
	c.finish(r, ref, res)
}

// hitLine applies a hit's bookkeeping to the slab's line pos: a write
// marks it dirty, and LRU-Direct stamps its touch. Both lookup paths
// record hits here, so they leave identical line state.
func (c *Cache) hitLine(pos int, write bool) {
	if write {
		c.lines[pos] |= lineDirty
	}
	if c.touch != nil {
		c.touch[pos] = c.addresses
	}
}

// fastLookup is the block-index access path: one lookup in the
// region's index decides hit/miss and locates the holding line, whose
// slab position also says which tile holds it, so a hit reads no
// molecule. TagProbes — the modelled count of molecules a real
// Molecular cache would enable in parallel — is computed from the
// region's per-tile population, tile by tile, exactly as the linear
// probe model accumulates it: every molecule the region owns on a
// searched tile is enabled by the ASID comparison stage, wherever (or
// whether) the hit lands. The Ulmo sweep over contributing sibling
// tiles still happens per tile (NoC fault windows and retry accounting
// are per-traversal effects), but no molecule is scanned.
func (c *Cache) fastLookup(r *Region, block uint64, write bool, res *engine.Result) (unreachable bool) {
	pos := r.index.get(block) // -1 on a miss, which no tile holds

	// Stage 1: home tile.
	res.TagProbes = len(r.byTile[r.home.id])
	if r.home.holdsLine(pos) {
		c.hitLine(pos, write)
		res.Hit = true
		res.DataReads = 1
		return false
	}

	// Stage 2: Ulmo sweep of the contributing sibling tiles, in tile
	// order, stopping at the holder's tile.
	for _, t := range r.home.cluster.tiles {
		p := len(r.byTile[t.id])
		if t == r.home || p == 0 {
			continue
		}
		if !c.ulmoTraverse(r.asid) {
			// The delay fault outlasted the Ulmo's retry budget: this
			// tile's molecules are unreachable for the current access —
			// even when the index knows the line is resident there.
			unreachable = true
			continue
		}
		res.TagProbes += p
		if t.holdsLine(pos) {
			c.hitLine(pos, write)
			res.Hit = true
			res.RemoteTileHit = true
			res.DataReads = 1
			return false
		}
	}
	return unreachable
}

// referenceLookup is the original linear probe model, kept as the
// differential oracle: every eligible molecule on each searched tile is
// scanned until the line is found. Results, ledgers and molecule state
// are identical to fastLookup's; only the discovery mechanics differ.
func (c *Cache) referenceLookup(r *Region, block uint64, write bool, res *engine.Result) (unreachable bool) {
	// Stage 1: home tile.
	hit, probes := c.probeTile(r, r.home, block, write)
	res.TagProbes = probes
	if hit {
		res.Hit = true
		res.DataReads = 1
		return false
	}

	// Stage 2: Ulmo searches only the sibling tiles whose molecules
	// contribute to the application's region.
	for _, t := range r.home.cluster.tiles {
		if t == r.home || len(r.byTile[t.id]) == 0 {
			continue
		}
		if !c.ulmoTraverse(r.asid) {
			unreachable = true
			continue
		}
		hit, probes = c.probeTile(r, t, block, write)
		res.TagProbes += probes
		if hit {
			res.Hit = true
			res.RemoteTileHit = true
			res.DataReads = 1
			return false
		}
	}
	return unreachable
}

// probeTile is the reference path's per-tile scan: the region's
// molecules on tile t are searched linearly, returning hit status and
// the number of molecules activated (all of them: the ASID comparison
// stage enables them in parallel).
func (c *Cache) probeTile(r *Region, t *Tile, block uint64, write bool) (bool, int) {
	own := r.byTile[t.id]
	for _, m := range own {
		if m.contains(block) {
			c.hitLine(m.id<<c.slotBits|m.index(block), write)
			return true, len(own)
		}
	}
	return false, len(own)
}

// invalidateCompanions drops the victim's group companions from any
// sibling molecule of the region before a lineFactor > 1 fill:
// duplicates would go silently stale. The dropped copies' dirty state
// is not charged to the access — the fill's own writeback count is the
// modelled quantity (matching the original accounting the goldens pin).
func (c *Cache) invalidateCompanions(r *Region, victim *Molecule, block uint64) {
	group := block &^ uint64(r.lineFactor-1)
	for i := 0; i < r.lineFactor; i++ {
		b := group + uint64(i)
		if b == block {
			continue
		}
		if c.refProbe {
			// Oracle path: discover holders by the original row-major
			// linear scan.
			for _, row := range r.rows {
				for _, m := range row {
					if m == victim {
						continue
					}
					if present, _ := m.invalidate(b); present {
						r.indexRemove(b, m)
					}
				}
			}
			continue
		}
		if pos := r.index.get(b); pos >= 0 {
			if m := c.molsByID[pos>>c.slotBits]; m != victim {
				m.invalidate(b)
				r.indexRemove(b, m)
			}
		}
	}
}

// finish records one access: its outcome in the ledger, the region's
// occupancy and the probe histogram, and — when telemetry is attached —
// the counts no simulator structure keeps and the access event. The
// ledger's total and the ASID's cell are the only hit/miss counts an
// access writes; the region's lifetime counts, the resize windows and
// the registry's hit, miss and probe metrics read them.
func (c *Cache) finish(r *Region, ref trace.Ref, res *engine.Result) {
	// r.appCell is r's cell in c.ledger, cached at region creation —
	// this is c.ledger.Record(ref.ASID, …) without the lookup.
	c.ledger.Total.Record(res.Hit)
	r.appCell.Record(res.Hit)
	r.occupancySum += uint64(r.count)
	c.probes.Observe(uint64(res.TagProbes))
	if c.ins != nil {
		// Modelled service time: the L2-hit latency as the base, the
		// memory latency when the line was fetched, plus whatever NoC
		// fault penalty this access incurred.
		svc := float64(engine.L2HitCycles + c.remote)
		if !res.Hit {
			svc += engine.MemoryCycles
		}
		r.svcHist.Observe(svc)
		if res.RemoteTileHit {
			c.ins.remoteHits.Inc()
		}
		c.ins.writebacks.Add(uint64(res.Writebacks))
		c.ins.linesFetched.Add(uint64(res.LinesFetched))
	}
	c.remoteCycles += c.remote
	if c.tracer != nil {
		// Tracer.Access does not inline, so the check stays here: an
		// untraced access pays a comparison, not a call.
		c.tracer.Access(c.addresses, ref.ASID, ref.Addr, res.Hit, res.RemoteTileHit,
			res.TagProbes, res.Writebacks)
	}
}

// Contains reports whether the line holding a is resident in any molecule
// (a test probe; no state change). The fast path consults each
// region's block index; the reference path repeats the original
// exhaustive molecule scan.
func (c *Cache) Contains(a uint64) bool {
	block := a / c.cfg.LineSize
	if c.refProbe {
		for _, cl := range c.clusters {
			for _, t := range cl.tiles {
				for _, m := range t.molecules {
					if m.owned && m.contains(block) {
						return true
					}
				}
			}
		}
		return false
	}
	for _, r := range c.regionList {
		if r.index.get(block) >= 0 {
			return true
		}
	}
	return false
}

// FreeInCluster returns the number of unassigned molecules in the
// region's home cluster — the pool its grows and shrinks trade against.
func (c *Cache) FreeInCluster(r *Region) int {
	return r.home.cluster.FreeCount()
}

// RemoteCycles returns the cycles NoC delay faults have charged Ulmo
// traversals: every retransmission's backoff, summed over the run.
func (c *Cache) RemoteCycles() uint64 { return c.remoteCycles }

// FreeMolecules returns the number of unassigned molecules cache-wide.
func (c *Cache) FreeMolecules() int {
	n := 0
	for _, cl := range c.clusters {
		n += cl.FreeCount()
	}
	return n
}

// TotalMolecules returns the cache's molecule count.
func (c *Cache) TotalMolecules() int {
	return int(c.cfg.TotalSize / c.cfg.MoleculeSize)
}

// AverageProbes returns the mean molecules probed per access, the
// selective-enablement quantity the power model consumes.
func (c *Cache) AverageProbes() float64 { return c.probes.Mean() }

// Molecule returns the molecule with the given global ID, or nil.
func (c *Cache) Molecule(id int) *Molecule {
	if id < 0 || id >= len(c.molsByID) {
		return nil
	}
	return c.molsByID[id]
}
