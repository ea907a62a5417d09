package cache

import (
	"fmt"

	"molcache/internal/addr"
	"molcache/internal/engine"
	"molcache/internal/stats"
	"molcache/internal/trace"
)

// Config describes a traditional set-associative cache. Write misses
// always allocate (the paper's L2s are write-allocate write-back; both
// our L1 and L2 use it); it is the only supported mode.
type Config struct {
	// Size is the total data capacity in bytes (power of two).
	Size uint64
	// Ways is the associativity; 1 means direct mapped.
	Ways int
	// LineSize is the block size in bytes (power of two), 64 in all of
	// the paper's configurations.
	LineSize uint64
	// Policy selects the replacement policy; LRU when empty.
	Policy PolicyKind
	// Seed seeds the Random policy.
	Seed uint64
}

// Validate checks the geometry.
func (c Config) Validate() error {
	if err := addr.CheckPow2("size", c.Size); err != nil {
		return err
	}
	if err := addr.CheckPow2("line size", c.LineSize); err != nil {
		return err
	}
	if c.Ways < 1 {
		return fmt.Errorf("cache: ways must be >= 1, got %d", c.Ways)
	}
	switch c.Policy {
	case "", LRU, FIFO, Random, PLRU:
	default:
		return fmt.Errorf("cache: unknown policy kind %q", c.Policy)
	}
	if !addr.IsPow2(uint64(c.Ways)) {
		return fmt.Errorf("cache: ways must be a power of two, got %d", c.Ways)
	}
	lines := c.Size / c.LineSize
	if lines == 0 || lines%uint64(c.Ways) != 0 || lines/uint64(c.Ways) == 0 {
		return fmt.Errorf("cache: size %d / line %d does not divide into %d ways",
			c.Size, c.LineSize, c.Ways)
	}
	return nil
}

// Name renders the configuration the way the paper's tables do.
func (c Config) Name() string {
	if c.Ways == 1 {
		return addr.Bytes(c.Size) + " DM"
	}
	return fmt.Sprintf("%s %d-way", addr.Bytes(c.Size), c.Ways)
}

// line is one cache line's metadata. Data contents are never modelled;
// a trace-driven simulator only needs tags and state bits.
type line struct {
	tag   uint64
	asid  uint16
	valid bool
	dirty bool
}

// Cache is a trace-driven set-associative cache with write-back,
// write-allocate semantics. It implements engine.Cache.
type Cache struct {
	cfg    Config
	sets   int
	ways   int
	shift  uint // log2(lineSize)
	mask   uint64
	lines  []line // sets*ways, way-major within a set
	policy Policy
	ledger stats.Ledger

	// ins holds the telemetry instruments (nil by default: the access
	// path pays one pointer check when metrics are off).
	ins *cacheInstruments
}

var _ engine.Cache = (*Cache)(nil)

// New builds a cache from cfg.
func New(cfg Config) (*Cache, error) {
	if cfg.Policy == "" {
		cfg.Policy = LRU
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := int(cfg.Size / cfg.LineSize / uint64(cfg.Ways))
	policy, err := NewPolicy(cfg.Policy, sets, cfg.Ways, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return &Cache{
		cfg:    cfg,
		sets:   sets,
		ways:   cfg.Ways,
		shift:  addr.Log2(cfg.LineSize),
		mask:   uint64(sets - 1),
		lines:  make([]line, sets*cfg.Ways),
		policy: policy,
	}, nil
}

// MustNew is New for static configurations; it panics on invalid ones.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Name implements engine.Cache.
func (c *Cache) Name() string { return c.cfg.Name() }

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Ledger exposes the per-ASID hit/miss ledger.
func (c *Cache) Ledger() *stats.Ledger { return &c.ledger }

// Access implements engine.Cache.
func (c *Cache) Access(r trace.Ref) engine.Result {
	block := r.Addr >> c.shift
	set := int(block & c.mask)
	tag := block >> addr.Log2(uint64(c.sets))
	base := set * c.ways

	res := engine.Result{TagProbes: c.ways, DataReads: 1}

	// Parallel tag match across the set.
	for w := 0; w < c.ways; w++ {
		ln := &c.lines[base+w]
		if ln.valid && ln.tag == tag {
			if r.Kind == trace.Write {
				ln.dirty = true
			}
			ln.asid = r.ASID
			c.policy.Touch(set, w)
			res.Hit = true
			c.ledger.Record(r.ASID, true)
			c.ins.record(true, res.TagProbes, 0)
			return res
		}
	}

	// Miss: fill an invalid way if one exists, else evict.
	way := -1
	for w := 0; w < c.ways; w++ {
		if !c.lines[base+w].valid {
			way = w
			break
		}
	}
	if way < 0 {
		way = c.policy.Victim(set)
		victim := &c.lines[base+way]
		res.LinesEvicted = 1
		if victim.dirty {
			res.Writebacks = 1
		}
	}
	c.lines[base+way] = line{
		tag:   tag,
		asid:  r.ASID,
		valid: true,
		dirty: r.Kind == trace.Write,
	}
	c.policy.Insert(set, way)
	res.LinesFetched = 1
	c.ledger.Record(r.ASID, false)
	c.ins.record(false, res.TagProbes, res.Writebacks)
	return res
}

// Contains reports whether the line holding a is resident. It is a
// read-only probe used by coherence and by tests; it does not perturb
// replacement state.
func (c *Cache) Contains(a uint64) bool {
	_, _, ln := c.find(a)
	return ln != nil
}

// Invalidate drops the line holding a if resident, returning whether it
// was dirty (the caller models the resulting writeback). Used by the
// coherence protocol in internal/cmp.
func (c *Cache) Invalidate(a uint64) (wasPresent, wasDirty bool) {
	_, _, ln := c.find(a)
	if ln == nil {
		return false, false
	}
	d := ln.dirty
	*ln = line{}
	return true, d
}

// Downgrade clears the dirty bit of a resident line (the MESI M/E -> S
// demotion a remote read forces; the caller models the writeback it
// implies). It reports whether the line was present and whether it was
// dirty.
func (c *Cache) Downgrade(a uint64) (present, wasDirty bool) {
	_, _, ln := c.find(a)
	if ln == nil {
		return false, false
	}
	d := ln.dirty
	ln.dirty = false
	return true, d
}

// find locates the resident line for address a.
func (c *Cache) find(a uint64) (set, way int, ln *line) {
	block := a >> c.shift
	set = int(block & c.mask)
	tag := block >> addr.Log2(uint64(c.sets))
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.lines[base+w].valid && c.lines[base+w].tag == tag {
			return set, w, &c.lines[base+w]
		}
	}
	return 0, 0, nil
}

// EachLine calls fn for every resident line with its reconstructed
// address, owning ASID and dirty bit — the invariant checker's view of
// the contents. Read-only.
func (c *Cache) EachLine(fn func(a uint64, asid uint16, dirty bool)) {
	for i := range c.lines {
		ln := &c.lines[i]
		if !ln.valid {
			continue
		}
		set := uint64(i / c.ways)
		a := ((ln.tag << addr.Log2(uint64(c.sets))) | set) << c.shift
		fn(a, ln.asid, ln.dirty)
	}
}

// ValidLines counts resident lines (a test and debugging aid).
func (c *Cache) ValidLines() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid {
			n++
		}
	}
	return n
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Flush invalidates the whole cache, returning the number of dirty lines
// that a real cache would have written back.
func (c *Cache) Flush() (writebacks int) {
	for i := range c.lines {
		if c.lines[i].valid && c.lines[i].dirty {
			writebacks++
		}
		c.lines[i] = line{}
	}
	return writebacks
}
