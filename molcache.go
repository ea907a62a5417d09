// Package molcache is a library-level reproduction of "Molecular Caches:
// A caching structure for dynamic creation of application-specific
// Heterogeneous cache regions" (MICRO 2006).
//
// A molecular cache aggregates small direct-mapped caching units
// (molecules) into tiles and tile clusters, and binds subsets of
// molecules to applications as exclusive cache regions with an
// ASID-gated decode path. Regions are resized at run time toward
// per-application miss-rate goals (the paper's Algorithm 1), use Random
// or Randy (row-hashed) molecule replacement over a 2-D replacement view
// with per-row associativity, and may fetch multiple lines per miss
// (variable line size).
//
// The package is a facade over the internal packages:
//
//   - NewMolecular / NewTraditional build the cache models;
//   - NewController attaches the dynamic resizing controller;
//   - NewSimulator couples a molecular cache with its controller;
//   - NewSystem builds the CMP substrate (cores + private L1s) that
//     generates L2 reference streams from the bundled workload models,
//     and CaptureMix records a mix's L1-miss stream on it;
//   - NewWorkload instantiates the calibrated benchmark models;
//   - EstimatePower / EstimateMolecularPower run the CACTI-style model.
//
// The experiments reproducing the paper's tables and figures live in
// cmd/experiments; runnable examples live in examples/.
package molcache

import (
	"io"

	"molcache/internal/cache"
	"molcache/internal/cmp"
	"molcache/internal/engine"
	"molcache/internal/faults"
	"molcache/internal/metrics"
	"molcache/internal/molecular"
	"molcache/internal/partition"
	"molcache/internal/power"
	"molcache/internal/resize"
	"molcache/internal/stackdist"
	"molcache/internal/stats"
	"molcache/internal/telemetry"
	"molcache/internal/trace"
	"molcache/internal/workload"
)

// Core model types.
type (
	// Ref is one memory reference (address, ASID, CPU, read/write).
	Ref = trace.Ref
	// Kind distinguishes reads from writes.
	Kind = trace.Kind
	// AccessResult reports the externally visible effects of one cache
	// access (hit, fetches, writebacks, molecules probed).
	AccessResult = engine.Result
	// Cache is the interface every cache model implements.
	Cache = engine.Cache

	// MolecularConfig configures a molecular cache.
	MolecularConfig = molecular.Config
	// MolecularCache is the paper's contribution: tiles of molecules
	// serving per-application regions.
	MolecularCache = molecular.Cache
	// Region is an application-specific cache partition.
	Region = molecular.Region
	// RegionOptions customizes partition creation.
	RegionOptions = molecular.RegionOptions
	// ReplacementKind selects Random, Randy or LRU-Direct replacement.
	ReplacementKind = molecular.ReplacementKind

	// TraditionalConfig configures a set-associative baseline cache.
	TraditionalConfig = cache.Config
	// TraditionalCache is the set-associative LRU baseline model.
	TraditionalCache = cache.Cache

	// ResizeConfig configures the dynamic resizing controller.
	ResizeConfig = resize.Config
	// Controller drives Algorithm 1 over a molecular cache.
	Controller = resize.Controller
	// ResizeDecision is one reasoned entry of the controller's decision
	// log: Algorithm 1's inputs (miss rate, goal, free pool, period), the
	// action it chose and a human-readable reason. Controller.Decisions
	// returns the retained log; Controller.DecisionCount counts every
	// decision ever made (the log is a bounded ring).
	ResizeDecision = resize.Decision
	// TriggerKind selects constant or adaptive resize scheduling.
	TriggerKind = resize.TriggerKind

	// SystemConfig configures the CMP substrate.
	SystemConfig = cmp.Config
	// System is the CMP substrate: cores with private L1s sharing an L2.
	System = cmp.System

	// Generator produces a deterministic reference stream.
	Generator = workload.Generator
	// Access is one generated reference.
	Access = workload.Access

	// PowerGeometry describes a traditional cache for the power model.
	PowerGeometry = power.Geometry
	// PowerEstimate is the power model output.
	PowerEstimate = power.Estimate
	// MolecularPowerGeometry describes a molecular cache for the model.
	MolecularPowerGeometry = power.MolecularGeometry
	// MolecularPowerEstimate is the molecular power model output.
	MolecularPowerEstimate = power.MolecularEstimate

	// Goals maps ASIDs to miss-rate goals for QoS metrics.
	Goals = metrics.Goals
	// HitMiss is a hit/miss counter pair.
	HitMiss = stats.HitMiss
	// Ledger tracks hit/miss counts per ASID.
	Ledger = stats.Ledger

	// Profiler computes LRU stack-distance (miss-ratio-curve) profiles.
	Profiler = stackdist.Profiler
	// MissRatioCurve is a per-application LRU miss-rate-vs-size curve.
	MissRatioCurve = stackdist.Curve
	// OracleAllocation is a perfect-information static partition.
	OracleAllocation = stackdist.Allocation

	// ModifiedLRU is Suh et al.'s quota-partitioned shared cache.
	ModifiedLRU = partition.ModifiedLRU
	// ColumnCache is Suh et al.'s way-restricted shared cache.
	ColumnCache = partition.ColumnCache
	// HomeBank is a POCA-style process-ownership banked cache.
	HomeBank = partition.HomeBank

	// Tracer records structured simulation events into a ring buffer
	// and optional sink. A nil *Tracer is a valid no-op.
	Tracer = telemetry.Tracer
	// TelemetryEvent is one traced event.
	TelemetryEvent = telemetry.Event
	// TelemetryKind classifies traced events.
	TelemetryKind = telemetry.Kind
	// TelemetrySink receives every traced event (JSONL or in-memory).
	TelemetrySink = telemetry.Sink
	// MemorySink buffers traced events in memory (tests, examples).
	MemorySink = telemetry.MemorySink
	// JSONLSink streams traced events as JSON lines.
	JSONLSink = telemetry.JSONLSink
	// Registry is a live metrics registry of counters, gauges and
	// histograms with Prometheus-text and JSON snapshot exporters.
	Registry = telemetry.Registry
	// ProfileConfig wires -cpuprofile / -memprofile / -trace flags.
	ProfileConfig = telemetry.ProfileConfig

	// FaultCampaign is a deterministic schedule of hardware faults
	// (molecule failures, line corruptions, NoC delays) keyed to the
	// cache's access count. Parsable from JSON.
	FaultCampaign = faults.Campaign
	// FaultInjector delivers a materialized campaign to the cache.
	FaultInjector = faults.Injector
	// FaultStats counts delivered faults per class.
	FaultStats = faults.Stats
	// MoleculeFailure is a scheduled permanent molecule failure.
	MoleculeFailure = faults.MoleculeFailure
	// LineCorruption is a scheduled transient line corruption.
	LineCorruption = faults.LineCorruption
	// NoCDelay is a window of delayed/dropped interconnect responses.
	NoCDelay = faults.NoCDelay
	// FaultRandomSpec expands into seeded-random fault events.
	FaultRandomSpec = faults.RandomSpec
	// DegradationStats counts the cache's graceful-degradation actions
	// (retirements, writebacks, NoC retries, uncached bypasses).
	DegradationStats = molecular.DegradationStats
	// RetireReport describes one molecule retirement.
	RetireReport = molecular.RetireReport

	// InvariantViolation is one broken structural invariant.
	InvariantViolation = molecular.Violation
)

// Reference kinds.
const (
	Read  = trace.Read
	Write = trace.Write
)

// Molecule replacement policies (the paper's two plus the future-work
// LRU-Direct extension).
const (
	Random    = molecular.RandomReplacement
	Randy     = molecular.RandyReplacement
	LRUDirect = molecular.LRUDirect
)

// Resize triggers.
const (
	ConstantTrigger       = resize.Constant
	AdaptiveGlobalTrigger = resize.AdaptiveGlobal
	AdaptivePerAppTrigger = resize.AdaptivePerApp
)

// Telemetry event kinds.
const (
	KindAccess          = telemetry.KindAccess
	KindRegionCreate    = telemetry.KindRegionCreate
	KindRegionGrow      = telemetry.KindRegionGrow
	KindRegionShrink    = telemetry.KindRegionShrink
	KindRegionRebalance = telemetry.KindRegionRebalance
	KindResize          = telemetry.KindResize
	KindInvalidate      = telemetry.KindInvalidate
	KindMoleculeRetire  = telemetry.KindMoleculeRetire
	KindLineCorrupt     = telemetry.KindLineCorrupt
	KindNoCFault        = telemetry.KindNoCFault
)

// Tech70 is the paper's 70 nm process model.
var Tech70 = power.Tech70

// NewMolecular builds a molecular cache.
func NewMolecular(cfg MolecularConfig) (*MolecularCache, error) {
	return molecular.New(cfg)
}

// NewTraditional builds a set-associative baseline cache.
func NewTraditional(cfg TraditionalConfig) (*TraditionalCache, error) {
	return cache.New(cfg)
}

// NewController attaches a resize controller to a molecular cache.
func NewController(c *MolecularCache, cfg ResizeConfig) (*Controller, error) {
	return resize.New(c, cfg)
}

// NewSystem builds the CMP substrate over the shared L2. It never
// fails; the error result keeps the signature stable for callers.
//
// Each core owns the address window of its ASID, [ASID<<36,
// (ASID+1)<<36), as each application of the paper's multiprogrammed
// mixes owns its data, so the private L1s need no coherence: AddCore
// rejects a second core under one ASID, and System.Run stops with an
// error naming the core, its ASID and the address at the first
// reference outside its core's window. NewWorkload(name,
// uint64(asid)<<36, seed) builds a generator that stays inside it, as
// AddMix does for every application.
//
// With CaptureL1Misses, System.Captured returns the L1 misses of the
// Runs so far as one exact-size []Ref, 16 bytes a miss. A Run records
// its misses in about 4 bytes each and decodes them into that slice as
// it returns, so the stream is held once, not twice.
func NewSystem(l2 Cache, cfg SystemConfig) (*System, error) {
	return cmp.New(l2, cfg), nil
}

// CaptureMix runs the named workloads as one mix on the CMP substrate
// over the paper's 1 MB 4-way reference L2 for refs processor
// references and returns the captured L1-miss stream: the trace the
// paper replays into every cache under study.
func CaptureMix(names []string, refs int, seed uint64) ([]Ref, error) {
	return cmp.CaptureMix(names, refs, seed)
}

// NewWorkload instantiates one of the calibrated benchmark models
// (Workloads lists them) rooted at base, deterministic in seed.
func NewWorkload(name string, base, seed uint64) (Generator, error) {
	return workload.New(name, base, seed)
}

// Workloads returns the available benchmark model names.
func Workloads() []string { return workload.Names() }

// EstimatePower runs the CACTI-style model for a traditional geometry.
func EstimatePower(g PowerGeometry) (PowerEstimate, error) {
	return power.Model(g, power.Tech70)
}

// EstimateMolecularPower runs the model for a molecular geometry.
func EstimateMolecularPower(g MolecularPowerGeometry) (MolecularPowerEstimate, error) {
	return power.ModelMolecular(g, power.Tech70)
}

// NewProfiler builds a stack-distance profiler over the given line size.
func NewProfiler(lineSize uint64) *Profiler { return stackdist.New(lineSize) }

// OraclePartition computes a perfect-information static partition from
// miss-ratio curves (see internal/stackdist).
func OraclePartition(curves map[uint16]*MissRatioCurve, goals map[uint16]float64,
	totalLines, chunk int) (*OracleAllocation, error) {
	return stackdist.OraclePartition(curves, goals, totalLines, chunk)
}

// NewModifiedLRU builds Suh et al.'s quota-partitioned cache.
func NewModifiedLRU(size uint64, ways int, lineSize uint64, defaultQuota uint64) (*ModifiedLRU, error) {
	return partition.NewModifiedLRU(size, ways, lineSize, defaultQuota)
}

// NewColumnCache builds Suh et al.'s way-restricted cache.
func NewColumnCache(size uint64, ways int, lineSize uint64) (*ColumnCache, error) {
	return partition.NewColumnCache(size, ways, lineSize)
}

// NewHomeBank builds a POCA-style banked cache.
func NewHomeBank(banks int, bankSize uint64, ways int, lineSize uint64) (*HomeBank, error) {
	return partition.NewHomeBank(banks, bankSize, ways, lineSize)
}

// AverageDeviation computes the paper's QoS metric: the mean excess over
// the miss-rate goal across goal-bearing applications.
func AverageDeviation(l *Ledger, goals Goals) float64 {
	return metrics.AverageDeviation(l, goals)
}

// UniformGoals assigns the same miss-rate goal to every listed ASID.
func UniformGoals(goal float64, asids ...uint16) Goals {
	return metrics.UniformGoals(goal, asids...)
}

// NewTracer builds an event tracer holding the last ringSize events
// (<= 0 selects the default). A nil *Tracer is a valid no-op tracer.
func NewTracer(ringSize int) *Tracer { return telemetry.NewTracer(ringSize) }

// NewRegistry builds an empty metrics registry. A nil *Registry is a
// valid no-op registry.
func NewRegistry() *Registry { return telemetry.NewRegistry() }

// NewMemorySink buffers traced events in memory.
func NewMemorySink() *MemorySink { return telemetry.NewMemorySink() }

// NewJSONLSink streams traced events to w as JSON lines.
func NewJSONLSink(w io.Writer) *JSONLSink { return telemetry.NewJSONLSink(w) }

// Simulator couples a molecular cache with its resize controller so that
// every access also ticks Algorithm 1's trigger — the common way to
// drive the system.
type Simulator struct {
	Cache      *MolecularCache
	Controller *Controller

	// batch is AccessBatch's results buffer, reused by every call.
	batch []AccessResult
}

// NewSimulator builds the cache and controller together.
func NewSimulator(mcfg MolecularConfig, rcfg ResizeConfig) (*Simulator, error) {
	c, err := molecular.New(mcfg)
	if err != nil {
		return nil, err
	}
	ctrl, err := resize.New(c, rcfg)
	if err != nil {
		return nil, err
	}
	return &Simulator{Cache: c, Controller: ctrl}, nil
}

// AttachTelemetry routes both the cache's and the controller's
// observations through tr (structured events) and reg (live metrics).
// Either may be nil; attaching nil detaches.
func (s *Simulator) AttachTelemetry(tr *Tracer, reg *Registry) {
	s.Cache.AttachTelemetry(tr, reg)
	s.Controller.AttachTelemetry(tr, reg)
}

// InjectFaults attaches a fault campaign to the simulator's cache.
// Scheduled faults are delivered as the access count advances; failed
// molecules are retired (lines written back and invalidated) and the
// next resize epoch re-grows the shrunken regions from healthy spares.
// A zero-value campaign detaches fault injection.
func (s *Simulator) InjectFaults(c FaultCampaign) error {
	var inj *FaultInjector
	if c.Seed != 0 || len(c.MoleculeFailures) > 0 || len(c.LineCorruptions) > 0 ||
		len(c.NoCDelays) > 0 || c.RandomMoleculeFailures != nil ||
		c.RandomLineCorruptions != nil {
		var err error
		if inj, err = faults.NewInjector(c); err != nil {
			return err
		}
	}
	return s.Cache.AttachFaults(inj)
}

// FaultStats reports delivered fault counts, or a zero value when no
// campaign is attached.
func (s *Simulator) FaultStats() FaultStats {
	if inj := s.Cache.Faults(); inj != nil {
		return inj.Stats()
	}
	return FaultStats{}
}

// Degradation reports the cache's graceful-degradation counters.
func (s *Simulator) Degradation() DegradationStats { return s.Cache.Degradation() }

// CheckInvariants audits the simulator's structural invariants on
// demand and returns every violation found (nil when healthy).
func (s *Simulator) CheckInvariants() []InvariantViolation {
	return s.Cache.CheckInvariants()
}

// Access applies one reference and runs the resize trigger.
func (s *Simulator) Access(r Ref) AccessResult {
	var res AccessResult
	s.Cache.AccessInto(r, &res)
	s.Controller.Tick()
	return res
}

// AccessBatch applies a batch of references in order and returns their
// results — the fold of Access. The results live in a buffer the
// simulator owns and reuses: the slice is valid until this simulator's
// next AccessBatch call, which overwrites it, so a caller that keeps
// results past that call copies them first. Replaying in windows of a
// fixed size therefore allocates nothing after the first window. Each
// access writes its result straight into its slot.
func (s *Simulator) AccessBatch(refs []Ref) []AccessResult {
	if cap(s.batch) < len(refs) {
		s.batch = make([]AccessResult, len(refs))
	}
	out := s.batch[:len(refs)]
	for i := range refs {
		s.Cache.AccessInto(refs[i], &out[i])
		s.Controller.Tick()
	}
	return out
}

// Sharded returns s: batches always run serially.
//
// Deprecated: the sharded replay engine was removed. _bench/serve.go's
// journal re-drive is the last caller; use AccessBatch directly.
func (s *Simulator) Sharded(int) *Simulator { return s }

// Run replays a reference slice through the simulator and returns the
// per-ASID ledger.
func (s *Simulator) Run(refs []Ref) *Ledger {
	for _, r := range refs {
		s.Access(r)
	}
	return s.Cache.Ledger()
}
