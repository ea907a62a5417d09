// Command molchaos is the crash/restore soak harness for the MOLC1
// checkpoint path. Each iteration draws a random cache geometry, an
// optional random fault campaign and a randomized reference trace, then
// runs two simulators over the same trace:
//
//   - the reference runs uninterrupted;
//   - the victim is checkpointed periodically, killed at random points,
//     restored from its latest checkpoint, and replays from there.
//
// Every victim access after every restore must reproduce the reference
// result exactly; the final ledgers must agree, the victim must pass the
// structural audit, and a checkpoint file round trip must reproduce its
// complete cache state. Each iteration additionally fuzzes the
// final checkpoint image with random bit flips, truncations and zeroed
// ranges: every mutation must fail restore with a typed snapshot error —
// never a panic, never a silent success.
//
// On any failure molchaos writes a minimized repro bundle (meta.json
// with the iteration seed and geometry, campaign.json, the offending
// snapshot, and the trace slice around the divergence) under -out and
// exits nonzero. Reproduce a bundle with:
//
//	molchaos -iter-seed <seed from meta.json>
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"molcache"
	"molcache/internal/faults"
	"molcache/internal/molecular"
	"molcache/internal/resize"
	"molcache/internal/rng"
	"molcache/internal/snapshot"
	"molcache/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("molchaos: ")
	seed := flag.Uint64("seed", 20060101, "master seed for the campaign sequence")
	iterations := flag.Int("iterations", 0, "iterations to run (0: bounded by -duration)")
	duration := flag.Duration("duration", 30*time.Second, "wall-clock budget when -iterations is 0")
	accesses := flag.Int("accesses", 12_000, "trace length per iteration")
	mutations := flag.Int("mutations", 24, "snapshot corruption probes per iteration")
	out := flag.String("out", "soak-artifacts", "directory for repro bundles on failure")
	iterSeed := flag.Uint64("iter-seed", 0, "run exactly one iteration with this seed (repro mode)")
	verbose := flag.Bool("v", false, "log one line per iteration")
	flag.Parse()

	if *iterSeed != 0 {
		if fail := runIteration(*iterSeed, *accesses, *mutations, *out, 0); fail != nil {
			log.Fatalf("FAIL: %s (bundle: %s)", fail.reason, fail.bundle)
		}
		log.Printf("iteration with seed %d: ok", *iterSeed)
		return
	}

	start := time.Now()
	iter := 0
	for {
		if *iterations > 0 && iter >= *iterations {
			break
		}
		if *iterations == 0 && time.Since(start) >= *duration {
			break
		}
		s := rng.DeriveSeed(*seed, uint64(iter))
		if fail := runIteration(s, *accesses, *mutations, *out, iter); fail != nil {
			log.Fatalf("FAIL at iteration %d (seed %d): %s\nrepro bundle: %s\nreproduce with: molchaos -iter-seed %d",
				iter, s, fail.reason, fail.bundle, s)
		}
		if *verbose {
			log.Printf("iteration %d (seed %d): ok", iter, s)
		}
		iter++
	}
	log.Printf("soak clean: %d iterations in %s", iter, time.Since(start).Round(time.Millisecond))
}

// chaosSetup is one iteration's randomized scenario, recorded verbatim
// into repro bundles.
type chaosSetup struct {
	Seed      uint64           `json:"seed"`
	Iteration int              `json:"iteration"`
	Config    molecular.Config `json:"config"`
	Resize    resize.Config    `json:"resize"`
	Faults    bool             `json:"faults"`
	Accesses  int              `json:"accesses"`
}

// failure describes one soak failure after its bundle has been written.
type failure struct {
	reason string
	bundle string
}

// runIteration executes one randomized kill/restore campaign. A nil
// return means the iteration was clean.
func runIteration(seed uint64, accesses, mutations int, out string, iter int) *failure {
	src := rng.New(seed)
	setup := chaosSetup{
		Seed:      seed,
		Iteration: iter,
		Config:    genConfig(src),
		Resize:    genResizeConfig(src),
		Faults:    src.Intn(2) == 1,
		Accesses:  accesses,
	}
	var campaign *faults.Campaign
	if setup.Faults {
		c := genCampaign(src, uint64(accesses))
		campaign = &c
	}
	refs := genTrace(src, accesses)

	bundle := func(reason string, snap []byte, divergeAt int) *failure {
		dir, err := writeBundle(out, iter, reason, setup, campaign, snap, refs, divergeAt)
		if err != nil {
			log.Printf("writing repro bundle: %v", err)
			dir = "(bundle write failed)"
		}
		return &failure{reason: reason, bundle: dir}
	}

	ref, err := buildSim(setup, campaign)
	if err != nil {
		return bundle(fmt.Sprintf("building reference simulator: %v", err), nil, -1)
	}
	victim, err := buildSim(setup, campaign)
	if err != nil {
		return bundle(fmt.Sprintf("building victim simulator: %v", err), nil, -1)
	}

	// Reference leg: uninterrupted, results recorded for replay checks.
	want := make([]molcache.AccessResult, len(refs))
	for i, r := range refs {
		want[i] = ref.Access(r)
	}

	// Victim leg: checkpoint every ckEvery accesses, die at each kill
	// point, restore from the latest checkpoint and replay from there.
	ckEvery := 500 + src.Intn(2_000)
	kills := map[int]bool{}
	for n := 1 + src.Intn(3); n > 0; n-- {
		kills[1+src.Intn(len(refs))] = true
	}
	ckBytes, err := victim.EncodeCheckpoint() // initial-state checkpoint
	if err != nil {
		return bundle(fmt.Sprintf("initial checkpoint: %v", err), nil, 0)
	}
	ckAt := 0
	for i := 0; i < len(refs); {
		if got := victim.Access(refs[i]); got != want[i] {
			return bundle(fmt.Sprintf("divergence at access %d: reference %+v, victim %+v",
				i, want[i], got), ckBytes, i)
		}
		i++
		if i%ckEvery == 0 {
			ckBytes, err = victim.EncodeCheckpoint()
			if err != nil {
				return bundle(fmt.Sprintf("checkpoint at access %d: %v", i, err), nil, i)
			}
			ckAt = i
		}
		if kills[i] {
			delete(kills, i) // die once per kill point
			restored, err := molcache.RestoreSimulatorBytes(ckBytes)
			if err != nil {
				return bundle(fmt.Sprintf("restore after kill at access %d (checkpoint at %d): %v",
					i, ckAt, err), ckBytes, i)
			}
			restored.AttachTelemetry(nil, molcache.NewRegistry())
			victim = restored
			i = ckAt
		}
	}

	// End-state agreement: ledgers, then the structural audit.
	if a, b := *ref.Cache.Ledger(), *victim.Cache.Ledger(); a.Total != b.Total {
		return bundle(fmt.Sprintf("final ledgers diverged: reference %+v, victim %+v",
			a.Total, b.Total), ckBytes, len(refs)-1)
	}
	if vs := victim.CheckInvariants(); len(vs) > 0 {
		return bundle(fmt.Sprintf("victim end state violates invariant %s: %s",
			vs[0].Rule, vs[0].Detail), ckBytes, len(refs)-1)
	}

	// File-path round trip: the crash-safe writer and the file restore
	// must reproduce the victim's complete cache state exactly.
	final, err := victim.EncodeCheckpoint()
	if err != nil {
		return bundle(fmt.Sprintf("final checkpoint: %v", err), nil, len(refs)-1)
	}
	dir, err := os.MkdirTemp("", "molchaos-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "final.molc")
	if err := victim.Checkpoint(path); err != nil {
		return bundle(fmt.Sprintf("Checkpoint(%s): %v", path, err), final, len(refs)-1)
	}
	fromFile, err := molcache.RestoreSimulator(path)
	if err != nil {
		return bundle(fmt.Sprintf("RestoreSimulator(%s): %v", path, err), final, len(refs)-1)
	}
	// The restore audited the rebuilt cache; equal states finish the job.
	if !reflect.DeepEqual(victim.Cache.CaptureState(), fromFile.Cache.CaptureState()) {
		return bundle("file round trip changed the cache state", final, len(refs)-1)
	}

	// Corruption probes: every mutated image must fail with a typed
	// snapshot error; a panic or a silent success is a finding.
	for m := 0; m < mutations; m++ {
		damaged := mutateSnapshot(src, final)
		if reason := probeRestore(damaged); reason != "" {
			return bundle(fmt.Sprintf("corruption probe %d: %s", m, reason), damaged, -1)
		}
	}
	return nil
}

// probeRestore attempts a restore of a damaged image and reports why it
// was unacceptable ("" means the image was rejected cleanly).
func probeRestore(damaged []byte) (reason string) {
	defer func() {
		if r := recover(); r != nil {
			reason = fmt.Sprintf("restore panicked: %v", r)
		}
	}()
	_, err := molcache.RestoreSimulatorBytes(damaged)
	if err == nil {
		return "damaged snapshot restored without error"
	}
	var se *molcache.SnapshotError
	if !errors.As(err, &se) {
		return fmt.Sprintf("restore error is not a typed *SnapshotError: %v", err)
	}
	return ""
}

// mutateSnapshot damages a copy of the image: a random bit flip, a
// truncation, or a zeroed range.
func mutateSnapshot(src *rng.Source, data []byte) []byte {
	d := append([]byte(nil), data...)
	switch src.Intn(3) {
	case 0: // bit flip
		d[src.Intn(len(d))] ^= 1 << uint(src.Intn(8))
	case 1: // truncation (always shorter than the original)
		d = d[:src.Intn(len(d))]
	default: // zeroed range
		off := src.Intn(len(d))
		end := off + 1 + src.Intn(64)
		if end > len(d) {
			end = len(d)
		}
		zeroed := false
		for i := off; i < end; i++ {
			if d[i] != 0 {
				zeroed = true
			}
			d[i] = 0
		}
		if !zeroed { // range was already zero; flip a bit instead
			d[src.Intn(len(d))] ^= 0x80
		}
	}
	return d
}

// genConfig draws a random cache geometry.
func genConfig(src *rng.Source) molecular.Config {
	policies := []molecular.ReplacementKind{
		molecular.RandomReplacement, molecular.RandyReplacement, molecular.LRUDirect,
	}
	sizes := []uint64{512 << 10, 1 << 20}
	return molecular.Config{
		TotalSize:       sizes[src.Intn(len(sizes))],
		MoleculeSize:    8 << 10,
		TilesPerCluster: 2 + 2*src.Intn(2), // 2 or 4
		Clusters:        1 + src.Intn(2),   // 1 or 2
		Policy:          policies[src.Intn(len(policies))],
		LineFactor:      1 + src.Intn(2),
		Seed:            src.Uint64(),
	}
}

// genResizeConfig draws the controller configuration (with the post-pass
// invariant audit on — the soak wants every check the model has).
func genResizeConfig(src *rng.Source) resize.Config {
	return resize.Config{
		Period:        300 + uint64(src.Intn(3))*100,
		MinPeriod:     200,
		MaxPeriod:     5_000,
		MaxAllocation: 3 + src.Intn(3),
		DefaultGoal:   0.1 + float64(src.Intn(4))*0.05,
		DebugCheck:    true,
	}
}

// genCampaign draws a random fault schedule over the run.
func genCampaign(src *rng.Source, accesses uint64) faults.Campaign {
	c := faults.Campaign{
		Seed: src.Uint64(),
		RandomMoleculeFailures: &faults.RandomSpec{
			Count: 1 + src.Intn(3), Start: accesses / 10, End: accesses,
		},
		RandomLineCorruptions: &faults.RandomSpec{
			Count: 2 + src.Intn(8), Start: accesses / 10, End: accesses,
		},
	}
	for n := 1 + src.Intn(2); n > 0; n-- {
		at := uint64(src.Intn(int(accesses * 3 / 4)))
		c.NoCDelays = append(c.NoCDelays, faults.NoCDelay{
			At: at, Duration: uint64(100 + src.Intn(400)),
			ExtraCycles: uint64(1 + src.Intn(5)), DropAttempts: src.Intn(7),
		})
	}
	return c
}

// highASID is the application behind genTrace's 1-in-32 trickle. It
// lies past stats.DenseASIDs, so its region and ledger cell live in the
// region table's and the ledger's overflow maps, and every checkpoint
// carries them through.
const highASID uint16 = 0xFFFF

// genTrace draws the reference stream: 2-3 applications with hot sets
// and long tails, a trickle from highASID, 30% writes. Each addresses
// its own window.
func genTrace(src *rng.Source, n int) []trace.Ref {
	apps := 2 + src.Intn(2)
	refs := make([]trace.Ref, 0, n)
	for i := 0; i < n; i++ {
		var asid uint16
		if src.Intn(32) == 0 {
			asid = highASID
		} else {
			asid = uint16(1 + src.Intn(apps))
		}
		var block uint64
		if src.Intn(4) > 0 {
			block = uint64(src.Intn(512))
		} else {
			block = uint64(src.Intn(8192))
		}
		kind := trace.Read
		if src.Intn(10) < 3 {
			kind = trace.Write
		}
		refs = append(refs, trace.Ref{Addr: uint64(asid)<<32 | block*64, ASID: asid, Kind: kind})
	}
	return refs
}

// buildSim assembles one side: cache, optional fault injector,
// controller and a live registry — the full attachment surface a
// checkpoint must carry.
func buildSim(setup chaosSetup, campaign *faults.Campaign) (*molcache.Simulator, error) {
	c, err := molecular.New(setup.Config)
	if err != nil {
		return nil, err
	}
	if campaign != nil {
		inj, err := faults.NewInjector(*campaign)
		if err != nil {
			return nil, err
		}
		if err := c.AttachFaults(inj); err != nil {
			return nil, err
		}
	}
	ctrl, err := resize.New(c, setup.Resize)
	if err != nil {
		return nil, err
	}
	sim := &molcache.Simulator{Cache: c, Controller: ctrl}
	sim.AttachTelemetry(nil, molcache.NewRegistry())
	return sim, nil
}

// writeBundle lands a minimized repro bundle: the scenario, the fault
// campaign, the offending snapshot image and the trace slice around the
// divergence point.
func writeBundle(out string, iter int, reason string, setup chaosSetup,
	campaign *faults.Campaign, snap []byte, refs []trace.Ref, divergeAt int) (string, error) {
	dir := filepath.Join(out, fmt.Sprintf("iter%03d", iter))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	meta := struct {
		Reason    string     `json:"reason"`
		Setup     chaosSetup `json:"setup"`
		DivergeAt int        `json:"diverge_at"`
	}{Reason: reason, Setup: setup, DivergeAt: divergeAt}
	mj, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(dir, "meta.json"), mj, 0o644); err != nil {
		return "", err
	}
	if campaign != nil {
		cj, err := json.MarshalIndent(campaign, "", "  ")
		if err != nil {
			return "", err
		}
		if err := os.WriteFile(filepath.Join(dir, "campaign.json"), cj, 0o644); err != nil {
			return "", err
		}
	}
	if len(snap) > 0 {
		if err := snapshot.WriteRaw(filepath.Join(dir, "snapshot.molc"), snap); err != nil {
			return "", err
		}
	}
	if divergeAt >= 0 && len(refs) > 0 {
		lo, hi := divergeAt-50, divergeAt+10
		if lo < 0 {
			lo = 0
		}
		if hi > len(refs) {
			hi = len(refs)
		}
		slice := struct {
			FirstIndex int         `json:"first_index"`
			Refs       []trace.Ref `json:"refs"`
		}{FirstIndex: lo, Refs: refs[lo:hi]}
		sj, err := json.MarshalIndent(slice, "", "  ")
		if err != nil {
			return "", err
		}
		if err := os.WriteFile(filepath.Join(dir, "trace_slice.json"), sj, 0o644); err != nil {
			return "", err
		}
	}
	return dir, nil
}
