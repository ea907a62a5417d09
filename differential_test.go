// Differential oracle for the fast-path access pipeline: every
// configuration drives two identically seeded molecular caches — one on
// the O(1) block index, one forced onto the original linear probe scan
// (UseReferenceProbe) — through the same randomized trace with resize
// controllers ticking and (in half the configurations)
// an identical fault campaign scheduled against each. The two caches
// must agree access by access on the full engine.Result, on every
// Contains probe, and at the end on ledgers, probe histograms,
// degradation counters, telemetry snapshots, resize decision logs and
// the complete cache state, with both caches passing the structural
// audit. The fast side additionally carries the whole
// observability plane (an event tracer, state collection/publication),
// so the same equalities prove that observing a run never changes it.
// Any divergence means the index lost lock on the model the goldens pin.
package molcache_test

import (
	"fmt"
	"reflect"
	"testing"

	"molcache"

	"molcache/internal/faults"
	"molcache/internal/molecular"
	"molcache/internal/obs"
	"molcache/internal/resize"
	"molcache/internal/rng"
	"molcache/internal/stats"
	"molcache/internal/telemetry"
	"molcache/internal/trace"
)

// diffAccesses is the trace length per configuration (the acceptance
// floor is 10k; a little headroom costs nothing).
const diffAccesses = 12_000

// diffFaultCampaign schedules hard failures, corruptions and three NoC
// windows — the middle one past the Ulmo retry budget, so abandoned
// sweeps and the unreachable-tile bypass are exercised too.
func diffFaultCampaign() faults.Campaign {
	return faults.Campaign{
		Seed: 7,
		RandomMoleculeFailures: &faults.RandomSpec{
			Count: 6, Start: 2_000, End: 11_000,
		},
		RandomLineCorruptions: &faults.RandomSpec{
			Count: 80, Start: 500, End: 11_500,
		},
		NoCDelays: []faults.NoCDelay{
			{At: 3_000, Duration: 400, ExtraCycles: 3, DropAttempts: 2},
			{At: 6_000, Duration: 300, ExtraCycles: 5, DropAttempts: 6},
			{At: 9_000, Duration: 200, ExtraCycles: 2, DropAttempts: 3},
		},
	}
}

// diffCache builds one side of the pair: cache, resize controller
// (with the post-pass invariant audit on, which also verifies the block
// index after every grow/shrink/rebalance), registry, the event tracer
// tr on the cache and the controller (nil for none) and, when asked, a
// fault injector expanded from the common campaign.
func diffCache(t *testing.T, cfg molecular.Config, withFaults bool, tr *telemetry.Tracer) (*molecular.Cache, *resize.Controller, *telemetry.Registry) {
	t.Helper()
	c, err := molecular.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	c.AttachTelemetry(tr, reg)
	if withFaults {
		inj, err := faults.NewInjector(diffFaultCampaign())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AttachFaults(inj); err != nil {
			t.Fatal(err)
		}
	}
	ctrl, err := resize.New(c, resize.Config{
		Period:        400,
		MinPeriod:     200,
		MaxPeriod:     5_000,
		MaxAllocation: 4,
		DefaultGoal:   0.2,
		DebugCheck:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.AttachTelemetry(tr, nil)
	return c, ctrl, reg
}

// kindCount is a sink that counts the events it receives by kind.
type kindCount map[telemetry.Kind]int

func (k kindCount) Write(e telemetry.Event) error { k[e.Kind]++; return nil }
func (kindCount) Flush() error                    { return nil }

// diffOverflowASID is the fourth private application's ASID: past the
// dense bound, so the cache finds its region in the region table's
// overflow map rather than by direct index.
const diffOverflowASID uint16 = stats.DenseASIDs + 44

// diffHighASID is the fifth private application's ASID. Its addresses
// have bit 63 set, so its block numbers use the top bit a 64-byte line's
// block has (bit 57): the line words and the index's confirming reads
// must keep every bit of them.
const diffHighASID uint16 = 5

// diffPrivateASIDs are the applications of the oracle traces.
var diffPrivateASIDs = []uint16{1, 2, 3, diffOverflowASID, diffHighASID}

// diffAddr is the byte address of block within asid's address space.
func diffAddr(asid uint16, block uint64) uint64 {
	a := uint64(asid)<<32 | block*64
	if asid == diffHighASID {
		a |= 1 << 63
	}
	return a
}

// diffTrace generates the randomized reference stream: five private
// applications (one above the dense ASID bound, one at block numbers
// at the top of the 64-byte-line range) with distinct hot sets and long
// tails, and a 30% write mix.
func diffTrace(seed uint64) []trace.Ref {
	src := rng.New(seed)
	refs := make([]trace.Ref, 0, diffAccesses)
	for i := 0; i < diffAccesses; i++ {
		asid := diffPrivateASIDs[src.Intn(len(diffPrivateASIDs))]
		var block uint64
		if src.Intn(4) > 0 {
			block = uint64(src.Intn(512)) // hot set: mostly hits
		} else {
			block = uint64(src.Intn(8192)) // tail: misses and evictions
		}
		kind := trace.Read
		if src.Intn(10) < 3 {
			kind = trace.Write
		}
		refs = append(refs, trace.Ref{
			Addr: diffAddr(asid, block),
			ASID: asid,
			Kind: kind,
		})
	}
	return refs
}

// highLines counts the resident lines of asid's region whose block has
// bit 57 set, the top bit of a block at 64-byte lines.
func highLines(st molecular.CacheState, asid uint16) int {
	n := 0
	for _, ms := range st.Molecules {
		if !ms.Owned || ms.ASID != asid {
			continue
		}
		for _, ln := range ms.Lines {
			if ln.Tag >= 1<<57 {
				n++
			}
		}
	}
	return n
}

// TestDifferentialFastPathVsReferenceProbe is the oracle lock: every
// replacement policy × line factor × fault toggle, 12k accesses each,
// zero tolerated divergence anywhere the model is observable.
func TestDifferentialFastPathVsReferenceProbe(t *testing.T) {
	policies := []molecular.ReplacementKind{
		molecular.RandomReplacement, molecular.RandyReplacement, molecular.LRUDirect,
	}
	for _, policy := range policies {
		for _, lineFactor := range []int{1, 2, 4} {
			for _, withFaults := range []bool{false, true} {
				name := fmt.Sprintf("%s/lf%d/faults=%v", policy, lineFactor, withFaults)
				policy, lineFactor, withFaults := policy, lineFactor, withFaults
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					cfg := molecular.Config{
						TotalSize:       512 << 10,
						MoleculeSize:    8 << 10,
						TilesPerCluster: 4,
						Clusters:        2,
						Policy:          policy,
						LineFactor:      lineFactor,
						Seed:            2006,
					}
					// The observability plane rides the fast side only:
					// an event tracer on the cache and its controller,
					// plus periodic state collection/publication. The
					// reference side has no tracer, so every equality
					// below doubles as proof that observing the
					// simulation never changes it.
					events := kindCount{}
					tr := telemetry.NewTracer(0)
					tr.SetSink(events)
					fast, fastCtrl, fastReg := diffCache(t, cfg, withFaults, tr)
					ref, refCtrl, refReg := diffCache(t, cfg, withFaults, nil)
					ref.UseReferenceProbe(true)
					pub := obs.NewPublisher()

					refs := diffTrace(42 + uint64(lineFactor))
					probe := rng.New(99)
					for i, r := range refs {
						fr := fast.Access(r)
						rr := ref.Access(r)
						if fr != rr {
							t.Fatalf("access %d (%v): fast %+v != reference %+v", i, r, fr, rr)
						}
						fastCtrl.Tick()
						refCtrl.Tick()
						// Interleave residency probes: the index and the
						// linear scan must agree.
						if i%29 == 0 {
							a := diffAddr(diffPrivateASIDs[probe.Intn(len(diffPrivateASIDs))], uint64(probe.Intn(1024)))
							if fc, rc := fast.Contains(a), ref.Contains(a); fc != rc {
								t.Fatalf("access %d: Contains(%#x) fast %v != reference %v", i, a, fc, rc)
							}
						}
						if i%1_000 == 0 {
							pub.Publish(obs.Collect(fast, fastCtrl, fastReg))
						}
					}

					if !reflect.DeepEqual(*fast.Ledger(), *ref.Ledger()) {
						t.Errorf("ledgers diverged: fast %+v, reference %+v", *fast.Ledger(), *ref.Ledger())
					}
					for _, asid := range diffPrivateASIDs {
						if f, r := fast.Ledger().App(asid), ref.Ledger().App(asid); f != r {
							t.Errorf("asid %d ledger diverged: fast %+v, reference %+v", asid, f, r)
						}
					}
					if !reflect.DeepEqual(fast.ProbeHistogram(), ref.ProbeHistogram()) {
						t.Error("probe histograms diverged")
					}
					if f, r := fast.RemoteCycles(), ref.RemoteCycles(); f != r {
						t.Errorf("remote cycles diverged: fast %d, reference %d", f, r)
					}
					if f, r := fast.Degradation(), ref.Degradation(); f != r {
						t.Errorf("degradation stats diverged: fast %+v, reference %+v", f, r)
					}
					fs := fastReg.Snapshot()
					rs := refReg.Snapshot()
					if !reflect.DeepEqual(fs.Counters, rs.Counters) {
						t.Errorf("telemetry counters diverged:\nfast: %v\nreference: %v", fs.Counters, rs.Counters)
					}
					if !reflect.DeepEqual(fs.Gauges, rs.Gauges) {
						t.Errorf("telemetry gauges diverged:\nfast: %v\nreference: %v", fs.Gauges, rs.Gauges)
					}
					if !reflect.DeepEqual(fs.Histograms, rs.Histograms) {
						t.Errorf("telemetry histograms diverged:\nfast: %v\nreference: %v", fs.Histograms, rs.Histograms)
					}

					// Both controllers saw identical miss-rate windows, so
					// their reasoned decision logs must match entry for
					// entry — and the traced side must have published one
					// access event per access, and its fault events too.
					if !reflect.DeepEqual(fastCtrl.Decisions(), refCtrl.Decisions()) {
						t.Errorf("decision logs diverged:\nfast: %+v\nreference: %+v",
							fastCtrl.Decisions(), refCtrl.Decisions())
					}
					if got := events[telemetry.KindAccess]; got != len(refs) {
						t.Errorf("tracer saw %d access events for %d accesses", got, len(refs))
					}
					if withFaults && (events[telemetry.KindInvalidate] == 0 || events[telemetry.KindNoCFault] == 0) {
						t.Errorf("fault run traced %d invalidate and %d noc-fault events, want both",
							events[telemetry.KindInvalidate], events[telemetry.KindNoCFault])
					}
					if st := pub.Latest(); st == nil || st.Accesses == 0 || len(st.Regions) == 0 {
						t.Errorf("publisher never captured a usable state: %+v", st)
					}

					// The complete cache states must match exactly, and both
					// caches audit clean under every rule — the audit holds
					// each block index, which the reference cache maintains
					// too, to the equal lines.
					fst, rst := fast.CaptureState(), ref.CaptureState()
					if !reflect.DeepEqual(fst, rst) {
						t.Error("cache states diverged")
					}
					if vs := fast.CheckInvariants(); len(vs) != 0 {
						t.Errorf("fast cache has violations: %v", vs)
					}
					if vs := ref.CheckInvariants(); len(vs) != 0 {
						t.Errorf("reference cache has violations: %v", vs)
					}

					// The high tenant's lines carry bit 57, so the clean audit
					// and the equal states held them exact; without such
					// lines the top of the block range went untested.
					if highLines(fst, diffHighASID) == 0 {
						t.Error("no resident block with bit 57 set; the top of the block range went unexercised")
					}
				})
			}
		}
	}
}

// TestDifferentialCheckpointRestore is the checkpoint/restore leg of the
// oracle: a run checkpointed at mid-trace through the MOLC1 container
// and restored into a fresh simulator must be a byte-identical
// continuation of an uninterrupted run — access by access on the full
// engine.Result, on Contains probes, and at the end on ledgers, probe
// histograms, degradation and fault counters, telemetry snapshots,
// resize decision logs and the complete cache state, audited clean.
func TestDifferentialCheckpointRestore(t *testing.T) {
	policies := []molecular.ReplacementKind{
		molecular.RandomReplacement, molecular.RandyReplacement, molecular.LRUDirect,
	}
	for _, policy := range policies {
		for _, withFaults := range []bool{false, true} {
			name := fmt.Sprintf("%s/faults=%v", policy, withFaults)
			policy, withFaults := policy, withFaults
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				cfg := molecular.Config{
					TotalSize:       512 << 10,
					MoleculeSize:    8 << 10,
					TilesPerCluster: 4,
					Clusters:        2,
					Policy:          policy,
					LineFactor:      2,
					Seed:            2006,
				}
				// Side A runs uninterrupted; side B is checkpointed at
				// mid-trace and abandoned; side C resumes from B's
				// snapshot bytes with a fresh registry attached after
				// the restore, as to a new simulator.
				aCache, aCtrl, aReg := diffCache(t, cfg, withFaults, nil)
				bCache, bCtrl, _ := diffCache(t, cfg, withFaults, nil)
				a := &molcache.Simulator{Cache: aCache, Controller: aCtrl}
				b := &molcache.Simulator{Cache: bCache, Controller: bCtrl}
				// C's registry carries the controller's series too, so A's
				// must as well.
				aCtrl.AttachTelemetry(nil, aReg)

				refs := diffTrace(1234)
				cut := len(refs) / 2
				for i := 0; i < cut; i++ {
					ra := a.Access(refs[i])
					rb := b.Access(refs[i])
					if ra != rb {
						t.Fatalf("pre-cut access %d: %+v != %+v (seeding broken)", i, ra, rb)
					}
				}
				data, err := b.EncodeCheckpoint()
				if err != nil {
					t.Fatalf("EncodeCheckpoint: %v", err)
				}
				c, err := molcache.RestoreSimulatorBytes(data)
				if err != nil {
					t.Fatalf("RestoreSimulatorBytes: %v", err)
				}
				cReg := telemetry.NewRegistry()
				c.AttachTelemetry(nil, cReg)
				// The restored state must equal the checkpointed one
				// before either serves another access.
				if !reflect.DeepEqual(b.Cache.CaptureState(), c.Cache.CaptureState()) {
					t.Fatal("restored cache state differs from the checkpointed one")
				}

				probe := rng.New(4242)
				for i := cut; i < len(refs); i++ {
					ra := a.Access(refs[i])
					rc := c.Access(refs[i])
					if ra != rc {
						t.Fatalf("post-restore access %d (%v): uninterrupted %+v != restored %+v",
							i, refs[i], ra, rc)
					}
					if i%31 == 0 {
						addr := diffAddr(diffPrivateASIDs[probe.Intn(len(diffPrivateASIDs))], uint64(probe.Intn(1024)))
						if fa, fc := a.Cache.Contains(addr), c.Cache.Contains(addr); fa != fc {
							t.Fatalf("access %d: Contains(%#x) uninterrupted %v != restored %v", i, addr, fa, fc)
						}
					}
				}

				if !reflect.DeepEqual(*a.Cache.Ledger(), *c.Cache.Ledger()) {
					t.Errorf("ledgers diverged: uninterrupted %+v, restored %+v",
						*a.Cache.Ledger(), *c.Cache.Ledger())
				}
				if !reflect.DeepEqual(a.Cache.ProbeHistogram(), c.Cache.ProbeHistogram()) {
					t.Error("probe histograms diverged")
				}
				if fa, fc := a.Cache.RemoteCycles(), c.Cache.RemoteCycles(); fa != fc {
					t.Errorf("remote cycles diverged: uninterrupted %d, restored %d", fa, fc)
				}
				if fa, fc := a.Degradation(), c.Degradation(); fa != fc {
					t.Errorf("degradation stats diverged: uninterrupted %+v, restored %+v", fa, fc)
				}
				if withFaults {
					if fa, fc := a.FaultStats(), c.FaultStats(); fa != fc {
						t.Errorf("fault stats diverged: uninterrupted %+v, restored %+v", fa, fc)
					}
				}
				if as, cs := aReg.Snapshot(), cReg.Snapshot(); !reflect.DeepEqual(as, cs) {
					t.Errorf("registries diverged:\nuninterrupted: %+v\nrestored: %+v", as, cs)
				}
				if !reflect.DeepEqual(a.Controller.Decisions(), c.Controller.Decisions()) {
					t.Errorf("decision logs diverged:\nuninterrupted: %+v\nrestored: %+v",
						a.Controller.Decisions(), c.Controller.Decisions())
				}
				if fa, fc := a.Controller.DecisionCount(), c.Controller.DecisionCount(); fa != fc {
					t.Errorf("decision counts diverged: uninterrupted %d, restored %d", fa, fc)
				}
				if !reflect.DeepEqual(a.Cache.CaptureState(), c.Cache.CaptureState()) {
					t.Error("final cache states diverged")
				}
				if vs := a.CheckInvariants(); len(vs) != 0 {
					t.Errorf("uninterrupted cache has violations: %v", vs)
				}
				if vs := c.CheckInvariants(); len(vs) != 0 {
					t.Errorf("restored cache has violations: %v", vs)
				}
			})
		}
	}
}
