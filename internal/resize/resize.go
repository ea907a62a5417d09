// Package resize implements the paper's dynamic partition-sizing scheme
// (§3.4 and Algorithm 1): a controller that periodically reads each
// region's windowed miss rate and grows or shrinks the partition toward
// its miss-rate goal, with an adaptive resize period and miss-counter-
// guided placement.
//
// The paper runs this computation in an OS daemon costing ~1500 cycles
// per application every ~25,000 references; we model exactly that —
// a synchronous callback every period with an accounted cycle cost.
//
// Algorithm 1 interpretation (the pseudo-code leaves units implicit; see
// DESIGN.md §2):
//
//   - miss rate > 50%: grow by one maxAllocation chunk, after clamping
//     maxAllocation down to the last allocation actually obtained;
//   - miss rate < goal: withdraw sqrt(current * miss/goal) molecules — a
//     self-limiting count that stops as the miss rate rises toward the
//     goal ("withdraw molecules more slowly than you add");
//   - goal < miss <= 50%: grow linearly toward target = current *
//     miss/goal, at most maxAllocation at once (the pseudo-code also asks
//     for an improving miss rate; that gate is dropped, see resizeOne);
//   - otherwise: leave the partition alone this period.
//
// After the sweep the resize period doubles when the overall miss rate is
// within goal and collapses to 10% of itself when it is not.
package resize

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"molcache/internal/molecular"
	"molcache/internal/telemetry"
)

// TriggerKind selects when resizing runs.
type TriggerKind string

const (
	// Constant resizes every Period addresses, unconditionally.
	Constant TriggerKind = "constant"
	// AdaptiveGlobal adapts one shared period from the cache-wide miss
	// rate (the paper finds this best for small tiles).
	AdaptiveGlobal TriggerKind = "adaptive-global"
	// AdaptivePerApp adapts an independent period per application from
	// that application's miss rate (better for tiles >= 2 MB per the
	// paper).
	AdaptivePerApp TriggerKind = "adaptive-per-app"
)

// Config parameterizes the controller.
type Config struct {
	// Period is the initial resize period, in addresses serviced by the
	// cache (the paper's experimentally chosen default is 25000).
	Period uint64
	// Trigger selects constant or adaptive scheduling.
	Trigger TriggerKind
	// MaxAllocation bounds molecules added in one chunk (default 8).
	MaxAllocation int
	// DefaultGoal is the miss-rate goal for applications without an
	// entry in Goals. Zero means "no goal": such applications are
	// never resized (Figure 5's Graph B exempts mcf this way).
	DefaultGoal float64
	// Goals overrides the goal per ASID.
	Goals map[uint16]float64
	// MinPeriod and MaxPeriod clamp period adaptation
	// (defaults 1000 and 100000). The cap bounds how long a phase
	// change can go unnoticed after a quiet stretch.
	MinPeriod, MaxPeriod uint64
	// DebugCheck audits the cache's structural invariants (including the
	// fast-path block index) after every resize pass. The controller
	// panics on a violation — resize passes mutate the replacement view
	// and the index together, so corruption here must stop the run at
	// the mutation, not at some later divergence. Test/debug aid.
	DebugCheck bool
}

func (c Config) withDefaults() Config {
	if c.Period == 0 {
		c.Period = 25000
	}
	if c.Trigger == "" {
		c.Trigger = AdaptiveGlobal
	}
	if c.MaxAllocation == 0 {
		c.MaxAllocation = 8
	}
	if c.MinPeriod == 0 {
		c.MinPeriod = 1000
	}
	if c.MaxPeriod == 0 {
		c.MaxPeriod = 100000
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch c.Trigger {
	case Constant, AdaptiveGlobal, AdaptivePerApp:
	default:
		return fmt.Errorf("resize: unknown trigger %q", c.Trigger)
	}
	if c.DefaultGoal < 0 || c.DefaultGoal >= 1 {
		return fmt.Errorf("resize: default goal %v outside [0,1)", c.DefaultGoal)
	}
	// Check goals in ASID order so the reported error is the same one
	// every run when several goals are bad.
	asids := make([]uint16, 0, len(c.Goals))
	for asid := range c.Goals {
		asids = append(asids, asid)
	}
	sort.Slice(asids, func(i, j int) bool { return asids[i] < asids[j] })
	for _, asid := range asids {
		if g := c.Goals[asid]; g <= 0 || g >= 1 {
			return fmt.Errorf("resize: goal %v for ASID %d outside (0,1)", g, asid)
		}
	}
	if c.MinPeriod > c.MaxPeriod {
		return fmt.Errorf("resize: MinPeriod %d > MaxPeriod %d", c.MinPeriod, c.MaxPeriod)
	}
	if c.MaxAllocation < 0 {
		return fmt.Errorf("resize: negative MaxAllocation %d", c.MaxAllocation)
	}
	return nil
}

// Action names what the controller did to one partition.
type Action string

const (
	// ActionGrowChunk is the >50% miss-rate emergency growth.
	ActionGrowChunk Action = "grow-chunk"
	// ActionGrowLinear is the linear-model growth toward the goal.
	ActionGrowLinear Action = "grow-linear"
	// ActionShrink is the conservative sqrt-model withdrawal.
	ActionShrink Action = "shrink"
	// ActionNone means the partition was inspected but left alone.
	ActionNone Action = "none"
	// ActionRebalance moved a molecule between replacement-view rows
	// because the free pool could not satisfy a grow.
	ActionRebalance Action = "rebalance"
)

// allActions lists every Action a decision can take.
var allActions = [...]Action{ActionGrowChunk, ActionGrowLinear, ActionShrink, ActionNone, ActionRebalance}

// appState carries per-application controller state.
type appState struct {
	lastAction Action
	lastAlloc  int
	maxAlloc   int
	// floor is the partition size the controller will not shrink below:
	// set when a shrink was immediately followed by a blown goal (the
	// miss-vs-size cliff was found), decayed slowly to allow re-probing.
	floor     int
	preShrink int
	floorAge  int
	shrinkAge int
	// rebalanceCool spaces out row rebalances (each flushes a molecule).
	rebalanceCool int
	// Emergency-growth payoff audit state.
	growSinceMark int
	missAtMark    float64
	markAt        uint64
	frozen        int
	period        uint64 // per-app trigger only
	nextAt        uint64 // per-app trigger only (in app-local accesses)
}

// costCyclesPerApp is the daemon's modelled compute cost for one
// partition's resize decision: 1500 cycles, the paper's measured figure.
const costCyclesPerApp = 1500

// Controller drives periodic resizing of a molecular cache.
type Controller struct {
	//molvet:transient construction config, re-supplied at restore
	cfg Config
	//molvet:transient live cache reference re-wired at restore
	cache  *molecular.Cache
	period uint64
	nextAt uint64
	apps   map[uint16]*appState
	cycles uint64

	// Bounded decision ring (decision.go).
	decs    []Decision
	decHead int
	decSeq  uint64
	// pub is the append-only array Decisions copies the ring onto, and
	// pubSeq the Seq of the last decision it holds.
	//molvet:transient read-side copy of the ring, rebuilt from it by the next Decisions call
	pub []Decision
	//molvet:transient read-side cursor over the ring, reset with pub at restore
	pubSeq uint64

	// regions is the pass's scratch list of the cache's partitions,
	// reused so a pass allocates nothing.
	//molvet:transient per-pass scratch, refilled from the cache at every pass
	regions []*molecular.Region

	// actions counts the decisions made, by action; the registry reads
	// it.
	actions map[Action]uint64

	// tracer is the event attachment (nil by default; a detached
	// controller pays one pointer check per decision).
	//molvet:transient telemetry attachment re-established after restore
	tracer *telemetry.Tracer
}

// New builds a controller for cache.
func New(cache *molecular.Cache, cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Controller{
		cfg:     cfg,
		cache:   cache,
		period:  cfg.Period,
		nextAt:  cfg.Period,
		apps:    make(map[uint16]*appState),
		actions: make(map[Action]uint64),
	}, nil
}

// MustNew is New panicking on error.
func MustNew(cache *molecular.Cache, cfg Config) *Controller {
	c, err := New(cache, cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Goal returns the miss-rate goal for asid (0 = unmanaged).
func (c *Controller) Goal(asid uint16) float64 {
	if g, ok := c.cfg.Goals[asid]; ok {
		return g
	}
	return c.cfg.DefaultGoal
}

// SetGoal overrides the miss-rate goal for asid, taking effect at the
// next resize evaluation. A zero goal removes the override so Goal
// falls back to DefaultGoal. The Goals map is cloned on write so a
// caller-shared Config map is never mutated; the new map is what
// Config() (and therefore a checkpoint) observes afterwards.
func (c *Controller) SetGoal(asid uint16, goal float64) error {
	if goal < 0 || goal >= 1 {
		return fmt.Errorf("resize: goal %v for ASID %d outside [0,1)", goal, asid)
	}
	goals := make(map[uint16]float64, len(c.cfg.Goals)+1)
	for k, v := range c.cfg.Goals {
		goals[k] = v
	}
	if goal == 0 {
		delete(goals, asid)
	} else {
		goals[asid] = goal
	}
	c.cfg.Goals = goals
	return nil
}

// CyclesSpent returns the modelled daemon compute cost so far.
func (c *Controller) CyclesSpent() uint64 { return c.cycles }

// Period returns the current (global) resize period.
func (c *Controller) Period() uint64 { return c.period }

// state returns (creating if needed) the per-app state.
func (c *Controller) state(asid uint16) *appState {
	s := c.apps[asid]
	if s == nil {
		s = &appState{
			maxAlloc: c.cfg.MaxAllocation,
			period:   c.cfg.Period,
			nextAt:   c.cfg.Period,
		}
		c.apps[asid] = s
	}
	return s
}

// Tick must be called after every cache access; it fires the resize pass
// when a trigger is due. Returns true when a resize pass ran.
func (c *Controller) Tick() bool {
	switch c.cfg.Trigger {
	case Constant, AdaptiveGlobal:
		if c.cache.Addresses() < c.nextAt {
			return false
		}
		c.resizeAll()
		c.adaptGlobal()
		c.nextAt = c.cache.Addresses() + c.period
		c.debugCheck()
		return true
	case AdaptivePerApp:
		fired := false
		c.regions = c.cache.AppendRegions(c.regions[:0])
		for _, r := range c.regions {
			s := c.state(r.ASID())
			if r.Ledger().Accesses() < s.nextAt {
				continue
			}
			miss := c.resizeOne(r, s)
			// Adapt this app's own period.
			if goal := c.Goal(r.ASID()); goal > 0 {
				if miss < goal {
					s.period = clamp(s.period*2, c.cfg.MinPeriod, c.cfg.MaxPeriod)
				} else {
					s.period = clamp(s.period/10, c.cfg.MinPeriod, c.cfg.MaxPeriod)
				}
			}
			s.nextAt = r.Ledger().Accesses() + s.period
			fired = true
		}
		if fired {
			c.debugCheck()
		}
		return fired
	default:
		// An unknown trigger is rejected by Config.Validate; a controller
		// built around validation simply never fires.
		return false
	}
}

// resizeAll runs Algorithm 1 over every partition, neediest first, so
// that when the free pool cannot satisfy everyone the worst-missing
// partition gets first claim.
func (c *Controller) resizeAll() {
	c.regions = c.cache.AppendRegions(c.regions[:0])
	slices.SortStableFunc(c.regions, neediestFirst)
	for _, r := range c.regions {
		c.resizeOne(r, c.state(r.ASID()))
	}
}

// neediestFirst orders partitions by windowed miss rate, highest first.
func neediestFirst(a, b *molecular.Region) int {
	ma, mb := a.Window().Snapshot().MissRate(), b.Window().Snapshot().MissRate()
	switch {
	case ma > mb:
		return -1
	case ma < mb:
		return 1
	}
	return 0
}

// adaptGlobal updates the shared period from the cache-wide miss rate
// (AdaptiveGlobal only; Constant keeps its period).
func (c *Controller) adaptGlobal() {
	if c.cfg.Trigger != AdaptiveGlobal {
		c.cache.GlobalWindow().Roll()
		return
	}
	w := c.cache.GlobalWindow().Roll()
	goal := c.globalGoal()
	if w.Accesses() == 0 || goal <= 0 {
		return
	}
	if w.MissRate() < goal {
		c.period = clamp(c.period*2, c.cfg.MinPeriod, c.cfg.MaxPeriod)
	} else {
		c.period = clamp(c.period/10, c.cfg.MinPeriod, c.cfg.MaxPeriod)
	}
}

// globalGoal is the mean of the managed applications' goals.
func (c *Controller) globalGoal() float64 {
	sum, n := 0.0, 0
	// Refilled, not reused: resizeAll left the list sorted by miss
	// rate, and the sum must run in ASID order to stay bit-identical.
	c.regions = c.cache.AppendRegions(c.regions[:0])
	for _, r := range c.regions {
		if g := c.Goal(r.ASID()); g > 0 {
			sum += g
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// resizeOne applies Algorithm 1 to one partition and returns the windowed
// miss rate it used.
func (c *Controller) resizeOne(r *molecular.Region, s *appState) float64 {
	c.cycles += costCyclesPerApp
	w := r.Window().Roll()
	goal := c.Goal(r.ASID())
	miss := w.MissRate()
	// The decision's inputs are captured before the pass mutates
	// anything; the switch below fills in its outcome.
	sizeBefore := r.MoleculeCount()
	free := c.cache.FreeInCluster(r)
	d := Decision{
		At:             c.cache.Addresses(),
		ASID:           r.ASID(),
		MissRate:       miss,
		Goal:           goal,
		Deviation:      miss - goal,
		WindowAccesses: w.Accesses(),
		SizeBefore:     sizeBefore,
		FreeInCluster:  free,
		FreeGate:       2 * c.cfg.MaxAllocation,
		Frozen:         s.frozen > 0,
		Period:         c.period,
		Action:         ActionNone,
	}
	if c.cfg.Trigger == AdaptivePerApp {
		d.Period = s.period
	}
	defer func() {
		if d.code == reasonRendered {
			// The switch matched no case (or a case chose inaction
			// without saying why): the partition is simply healthy.
			if miss < goal {
				d.why(reasonAmple, 0, 0, 0)
			} else {
				d.why(reasonLeaveAlone, 0, 0, 0)
			}
		}
		d.Floor = s.floor
		d.SizeAfter = r.MoleculeCount()
		c.record(d)
		c.actions[d.Action]++
		if c.tracer != nil {
			c.tracer.Resize(d.At, d.ASID, string(d.Action), d.Delta, d.SizeAfter)
		}
		// Consume the epoch's placement counters only after the grow/
		// shrink placement has used them.
		r.ResetEpoch()
		s.lastAction = d.Action
	}()
	if goal <= 0 {
		d.why(reasonUnmanaged, 0, 0, 0)
		return miss
	}
	if w.Accesses() == 0 {
		d.why(reasonNoAccesses, 0, 0, 0)
		return miss
	}
	// Shrink regret: a shrink that blew the goal found the partition's
	// miss-vs-size cliff; pin the floor at the pre-shrink size so the
	// controller stops oscillating across the cliff. The first window
	// after a shrink is skipped — it carries the flushed molecules'
	// refetch transient, not the steady state. The floor decays slowly
	// so a phase change can be re-probed.
	if s.lastAction == ActionShrink {
		s.shrinkAge = 0
	} else {
		s.shrinkAge++
	}
	if s.shrinkAge == 1 && miss > goal && s.preShrink > s.floor {
		s.floor = s.preShrink
		s.floorAge = 0
	}
	if s.rebalanceCool > 0 {
		s.rebalanceCool--
	}
	if s.floor > 1 {
		s.floorAge++
		if s.floorAge > floorDecayPeriods {
			s.floor--
			s.floorAge = 0
		}
	}
	cur := sizeBefore
	switch {
	case miss > 0.5 && miss > goal:
		// Emergency growth by one chunk; per the pseudo-code, the chunk
		// clamps down to what the cluster actually delivered last time,
		// so a partition in a drained cluster stops over-requesting.
		//
		// Payoff audit: a pure-streaming application (CRC) misses at
		// 100% no matter how many molecules it holds; feeding it only
		// starves its cluster-mates. Every futilityWindow molecules of
		// emergency growth the controller checks whether the miss rate
		// actually moved; if not, further emergency growth freezes for
		// freezePasses.
		if s.frozen > 0 {
			s.frozen--
			d.why(reasonFrozen, int64(s.frozen), 0, 0)
			return miss
		}
		if s.growSinceMark >= futilityWindow {
			// A window's worth of growth is in place; hold until the
			// audit horizon passes (the miss rate cannot respond
			// faster than the working set's reuse distance), then
			// judge it.
			if c.cache.Addresses()-s.markAt < auditMinAddresses {
				d.why(reasonAuditPending, int64(s.growSinceMark), int64(c.cache.Addresses()-s.markAt), 0)
				return miss
			}
			if miss > 0.98*s.missAtMark {
				// The capacity bought nothing: give it back to the
				// cluster and freeze further emergency growth.
				n, _ := c.cache.Shrink(r, s.growSinceMark)
				s.frozen = freezePasses
				d.Action = ActionShrink
				d.Delta = -n
				d.why(reasonAuditFailed, 0, 0, s.missAtMark)
			} else {
				d.why(reasonAuditPassed, 0, 0, s.missAtMark)
			}
			s.growSinceMark = 0
			return miss
		}
		if s.lastAlloc > 0 && s.maxAlloc > s.lastAlloc {
			s.maxAlloc = s.lastAlloc
		}
		if s.maxAlloc < 1 {
			s.maxAlloc = 1
		}
		// Grow only errors on a negative count, which maxAlloc (>= 1 by
		// the clamp above) never is; treat a failure as zero obtained.
		got, err := c.cache.Grow(r, s.maxAlloc)
		if err != nil {
			got = 0
		}
		if got > 0 {
			s.lastAlloc = got
		}
		if got == 0 && s.rebalanceCool <= 0 && c.cache.Rebalance(r) {
			d.Action = ActionRebalance
			s.rebalanceCool = rebalanceCooldown
			d.why(reasonChunkRebalance, 0, 0, 0)
			break
		}
		if s.growSinceMark == 0 {
			s.missAtMark = miss
			s.markAt = c.cache.Addresses()
		}
		s.growSinceMark += got
		d.Action = ActionGrowChunk
		d.Delta = got
		d.why(reasonChunk, int64(s.maxAlloc), 0, 0)
	case miss < goal &&
		c.cache.FreeInCluster(r) <= 2*c.cfg.MaxAllocation:
		// Conservative shrink: withdraw sqrt(cur*miss/goal) molecules.
		// The count is self-limiting — as the partition tightens, the
		// miss rate rises toward the goal and withdrawals stop —
		// implementing "withdraw molecules more slowly than you add".
		// A partition is only taxed while the cluster's free pool is
		// under pressure: withdrawing capacity nobody is asking for
		// just costs refetches. The shrink-regret floor (below)
		// prevents the under-goal nibbling from oscillating across the
		// partition's miss-vs-size cliff.
		count := int(math.Sqrt(float64(cur) * miss / goal))
		if count > cur-1 {
			count = cur - 1
		}
		if s.floor > 0 && cur-count < s.floor {
			count = cur - s.floor
		}
		if count > 0 {
			s.preShrink = cur
			n, _ := c.cache.Shrink(r, count)
			d.Action = ActionShrink
			d.Delta = -n
			d.why(reasonTaxShrink, 0, 0, 0)
		} else if s.floor > 0 && cur <= s.floor {
			d.why(reasonFloorHolds, 0, 0, 0)
		} else {
			d.why(reasonMinimal, 0, 0, 0)
		}
	case miss > goal:
		// Linear-model growth toward the goal, one bounded chunk.
		// (The pseudo-code gates this on an improving miss rate; that
		// gate starves a partition whose miss rate plateaus above the
		// goal, so growth fires whenever the goal is missed.)
		target := int(math.Ceil(float64(cur) * miss / goal))
		delta := target - cur
		if delta > c.cfg.MaxAllocation {
			delta = c.cfg.MaxAllocation
		}
		if delta > 0 {
			got, err := c.cache.Grow(r, delta)
			if err != nil {
				got = 0
			}
			if got > 0 {
				s.lastAlloc = got
			}
			if got == 0 && s.rebalanceCool <= 0 && c.cache.Rebalance(r) {
				// Pool exhausted: adapt the replacement view's row
				// widths with the molecules already owned.
				d.Action = ActionRebalance
				s.rebalanceCool = rebalanceCooldown
				d.why(reasonLinearRebalance, 0, 0, 0)
				break
			}
			d.Action = ActionGrowLinear
			d.Delta = got
			d.why(reasonLinear, int64(target), int64(delta), 0)
		} else {
			d.why(reasonLinearMet, int64(target), 0, 0)
		}
	}
	return miss
}

// debugCheck audits the cache's structural invariants when
// Config.DebugCheck is set, and panics on the first violation — a
// resize pass that corrupted the replacement view or the block index
// must stop the run at the mutation, not at a later divergence.
func (c *Controller) debugCheck() {
	if !c.cfg.DebugCheck {
		return
	}
	if vs := c.cache.CheckInvariants(); len(vs) > 0 {
		panic(fmt.Sprintf("resize: invariant violated after resize pass: %v", vs[0]))
	}
}

func clamp(v, lo, hi uint64) uint64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// floorDecayPeriods is how many resize passes a shrink-regret floor holds
// before decaying by one molecule (allowing slow re-probing of the cliff).
const floorDecayPeriods = 10

// rebalanceCooldown is the number of resize passes between row
// rebalances of one partition (each rebalance flushes a molecule).
const rebalanceCooldown = 8

// futilityWindow is how many emergency-growth molecules are granted
// between payoff audits; freezePasses is how long emergency growth
// freezes when an audit finds the extra capacity bought nothing.
const (
	futilityWindow = 32
	freezePasses   = 50
	// auditMinAddresses is the horizon one audit spans: miss rates
	// cannot respond faster than the workload's reuse distance, so the
	// grown partition runs at least this many cache-wide addresses
	// before being judged.
	auditMinAddresses = 50000
)
