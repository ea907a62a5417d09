// Package cache implements the trace-driven set-associative LRU caches
// the paper uses as baselines (direct mapped through 8-way, Figure 5 and
// Table 2) and as the shared L2 of the motivating Table 1 experiment. It
// is the repository's stand-in for the authors' modified Dinero.
package cache

import (
	"fmt"

	"molcache/internal/addr"
	"molcache/internal/engine"
	"molcache/internal/stats"
	"molcache/internal/telemetry"
	"molcache/internal/trace"
)

// Config describes a traditional set-associative cache. Replacement is
// LRU and write misses always allocate (the paper's L2s are
// write-allocate write-back); these are the only supported modes. Every
// baseline and the CMP's shared reference L2 use it; the CMP's L1s are a
// tag-only filter of their own (internal/cmp).
type Config struct {
	// Size is the total data capacity in bytes (power of two).
	Size uint64
	// Ways is the associativity; 1 means direct mapped.
	Ways int
	// LineSize is the block size in bytes (power of two), 64 in all of
	// the paper's configurations.
	LineSize uint64
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
// a trace-driven simulator only needs tags and state bits. The LRU
// stamps sit in a slice of their own so that a line stays 16 bytes and
// a 4-way set's tags share one 64-byte host cache line.
type line struct {
	tag   uint64
	valid bool
	dirty bool
}

// Cache is a trace-driven set-associative LRU cache with write-back,
// write-allocate semantics. It implements engine.Cache.
type Cache struct {
	cfg     Config
	ways    int
	shift   uint // log2(lineSize)
	setBits uint // log2(sets)
	mask    uint64
	lines   []line   // sets*ways, way-major within a set
	stamps  []uint64 // LRU recency, parallel to lines: the clock at each line's last fill or hit
	clock   uint64   // advances once per access
	ledger  stats.Ledger

	// writebacks is the attached registry's writeback counter (nil, a
	// no-op, by default); the ledger holds every other count it exports.
	writebacks *telemetry.Counter
}

var _ engine.Cache = (*Cache)(nil)

// New builds a cache from cfg.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := int(cfg.Size / cfg.LineSize / uint64(cfg.Ways))
	return &Cache{
		cfg:     cfg,
		ways:    cfg.Ways,
		shift:   addr.Log2(cfg.LineSize),
		setBits: addr.Log2(uint64(sets)),
		mask:    uint64(sets - 1),
		lines:   make([]line, sets*cfg.Ways),
		stamps:  make([]uint64, sets*cfg.Ways),
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

// Ledger exposes the per-ASID hit/miss ledger.
func (c *Cache) Ledger() *stats.Ledger { return &c.ledger }

// Access implements engine.Cache: one tag match across the set, and on
// a miss a fill of the lowest invalid way, else of the least recently
// used one. The ledger counts go straight to the ASID's cell
// (stats.Ledger.AppRef inlines; Ledger.Record does not).
func (c *Cache) Access(r trace.Ref) engine.Result {
	block := r.Addr >> c.shift
	tag := block >> c.setBits
	base := int(block&c.mask) * c.ways
	set := c.lines[base : base+c.ways]
	stamps := c.stamps[base : base+c.ways]
	c.clock++
	write := r.Kind == trace.Write
	res := engine.Result{TagProbes: c.ways, DataReads: 1}

	way := -1
	for w := range set {
		ln := &set[w]
		if ln.valid && ln.tag == tag {
			ln.dirty = ln.dirty || write
			stamps[w] = c.clock
			c.ledger.Total.Hits++
			c.ledger.AppRef(r.ASID).Hits++
			res.Hit = true
			return res
		}
		if way < 0 && !ln.valid {
			way = w
		}
	}
	// Miss: the victim is the smallest stamp, the lowest way on a tie.
	res.LinesFetched = 1
	if way < 0 {
		way = 0
		for w := 1; w < len(stamps); w++ {
			if stamps[w] < stamps[way] {
				way = w
			}
		}
		res.LinesEvicted = 1
		if set[way].dirty {
			res.Writebacks = 1
			c.writebacks.Inc()
		}
	}
	stamps[way] = c.clock
	set[way] = line{tag: tag, valid: true, dirty: write}
	c.ledger.Total.Misses++
	c.ledger.AppRef(r.ASID).Misses++
	return res
}

// Contains reports whether the line holding a is resident. It is a
// read-only probe for tests; it does not perturb replacement state.
func (c *Cache) Contains(a uint64) bool {
	block := a >> c.shift
	tag := block >> c.setBits
	base := int(block&c.mask) * c.ways
	for w := base; w < base+c.ways; w++ {
		if c.lines[w].valid && c.lines[w].tag == tag {
			return true
		}
	}
	return false
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
