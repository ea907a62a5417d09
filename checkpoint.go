package molcache

import (
	"encoding/json"
	"fmt"
	"os"

	"molcache/internal/faults"
	"molcache/internal/molecular"
	"molcache/internal/resize"
	"molcache/internal/snapshot"
	"molcache/internal/telemetry"
)

// This file is the crash-safe checkpoint/restore facade: Checkpoint
// packs the full simulation state — cache geometry and contents, resize
// controller state (including the decision ring), fault-injection
// cursors and the live telemetry registry — into a MOLC1 container
// (internal/snapshot), and Restore rebuilds a byte-identical
// continuation from one. A run checkpointed at access N and restored
// produces exactly the Results, ledgers, histograms and telemetry an
// uninterrupted run produces.
//
// Restores are corruption-tolerant: envelope damage (truncation, bit
// flips, version skew) and semantic damage (states a healthy simulator
// cannot reach) surface as typed errors naming the failing section, so
// a caller can fall back to a cold start (molcached's boot does, and
// counts the failure on molcache_server_restore_failures_total). Every
// successful restore passes the cache's structural audit, which
// molecular.RestoreCache runs once as its last step, before the engine
// resumes.

// Checkpoint section names.
const (
	sectionMeta      = "meta"
	sectionConfig    = "config"
	sectionCache     = "cache"
	sectionResize    = "resize"
	sectionTelemetry = "telemetry"
	sectionFaults    = "faults"
	// sectionNoC held the interconnect traffic counters of a mesh this
	// simulator no longer models. Restore rejects a checkpoint that has
	// one: continuing without the hop latency it recorded would not
	// reproduce the uninterrupted run.
	sectionNoC = "noc"
)

// SnapshotError is the typed error a failed restore reports: Section
// names the MOLC1 section that was corrupt or inconsistent.
type SnapshotError = snapshot.Error

// checkpointMeta is quick-inspection context (molchaos repro bundles
// and healthz read it without decoding the heavyweight sections).
type checkpointMeta struct {
	Addresses uint64 `json:"addresses"`
}

// checkpointConfig carries the configurations needed to rebuild the
// simulator skeleton before state is poured back in.
type checkpointConfig struct {
	Molecular molecular.Config `json:"molecular"`
	Resize    resize.Config    `json:"resize"`
}

// checkpointFaults carries an attached injector's campaign and delivery
// cursors.
type checkpointFaults struct {
	Campaign faults.Campaign    `json:"campaign"`
	Cursors  faults.CursorState `json:"cursors"`
}

// sectionErr wraps a semantic decode/restore failure as a typed
// *SnapshotError naming the section, matching the envelope decoder's
// error shape so callers have one error type to inspect.
func sectionErr(section string, err error) error {
	return &snapshot.Error{Section: section, Reason: err.Error()}
}

// EncodeCheckpoint serializes the simulator's complete state as a MOLC1
// container. Telemetry and fault sections appear only when the
// corresponding attachment exists.
func (s *Simulator) EncodeCheckpoint() ([]byte, error) {
	cache := s.Cache
	cfg := checkpointConfig{
		Molecular: cache.Config(),
		Resize:    s.Controller.Config(),
	}
	sections := make([]snapshot.Section, 0, 6)
	add := func(name string, v any) error {
		payload, err := json.Marshal(v)
		if err != nil {
			return sectionErr(name, err)
		}
		sections = append(sections, snapshot.Section{Name: name, Payload: payload})
		return nil
	}
	if err := add(sectionMeta, checkpointMeta{Addresses: cache.Addresses()}); err != nil {
		return nil, err
	}
	if err := add(sectionConfig, cfg); err != nil {
		return nil, err
	}
	if err := add(sectionCache, cache.CaptureState()); err != nil {
		return nil, err
	}
	if err := add(sectionResize, s.Controller.CaptureState()); err != nil {
		return nil, err
	}
	if inj := cache.Faults(); inj != nil {
		if err := add(sectionFaults, checkpointFaults{
			Campaign: inj.Campaign(), Cursors: inj.CursorState(),
		}); err != nil {
			return nil, err
		}
	}
	if reg := cache.Registry(); reg != nil {
		if err := add(sectionTelemetry, reg.AtomicSnapshot()); err != nil {
			return nil, err
		}
	}
	return snapshot.Encode(sections)
}

// Checkpoint writes the simulator's state to path crash-safely (temp
// file + fsync + atomic rename): a crash mid-write leaves the previous
// checkpoint intact, never a torn file.
func (s *Simulator) Checkpoint(path string) error {
	data, err := s.EncodeCheckpoint()
	if err != nil {
		return err
	}
	return snapshot.WriteRaw(path, data)
}

// RestoreSimulatorBytes rebuilds a simulator from an encoded checkpoint.
// tr and reg are the caller's telemetry attachments (either may be nil);
// when reg is non-nil the snapshot's instrument values are loaded into
// it after attachment, so the registry continues exactly where the
// checkpointed one left off. The restored cache passes the structural
// audit (every rule, block-index consistency included) before being
// returned; any corruption yields a typed error naming the section.
func RestoreSimulatorBytes(data []byte, tr *Tracer, reg *Registry) (*Simulator, error) {
	sections, err := snapshot.Decode(data)
	if err != nil {
		return nil, err
	}
	if _, err := snapshot.Find(sections, sectionNoC); err == nil {
		return nil, &snapshot.Error{Section: sectionNoC,
			Reason: "checkpoint carries interconnect state, which this simulator does not model"}
	}
	unpack := func(name string, v any) error {
		payload, err := snapshot.Find(sections, name)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(payload, v); err != nil {
			return sectionErr(name, err)
		}
		return nil
	}
	var cfg checkpointConfig
	if err := unpack(sectionConfig, &cfg); err != nil {
		return nil, err
	}
	var cacheState molecular.CacheState
	if err := unpack(sectionCache, &cacheState); err != nil {
		return nil, err
	}
	var ctrlState resize.ControllerState
	if err := unpack(sectionResize, &ctrlState); err != nil {
		return nil, err
	}

	cache, err := molecular.RestoreCache(cfg.Molecular, cacheState)
	if err != nil {
		return nil, sectionErr(sectionCache, err)
	}
	ctrl, err := resize.New(cache, cfg.Resize)
	if err != nil {
		return nil, sectionErr(sectionConfig, err)
	}
	if err := ctrl.RestoreState(ctrlState); err != nil {
		return nil, sectionErr(sectionResize, err)
	}
	sim := &Simulator{Cache: cache, Controller: ctrl}

	if _, err := snapshot.Find(sections, sectionFaults); err == nil {
		var fs checkpointFaults
		if err := unpack(sectionFaults, &fs); err != nil {
			return nil, err
		}
		inj, err := faults.NewInjector(fs.Campaign)
		if err != nil {
			return nil, sectionErr(sectionFaults, err)
		}
		if err := cache.AttachFaults(inj); err != nil {
			return nil, sectionErr(sectionFaults, err)
		}
		if err := inj.RestoreCursors(fs.Cursors); err != nil {
			return nil, sectionErr(sectionFaults, err)
		}
	}

	// Telemetry: re-attach first so the funcs and per-region
	// instruments exist, then pour the snapshot's values back into the
	// instruments (LoadSnapshot ignores every name the registry lacks).
	sim.AttachTelemetry(tr, reg)
	if reg != nil {
		if payload, err := snapshot.Find(sections, sectionTelemetry); err == nil {
			var ms telemetry.Snapshot
			if err := json.Unmarshal(payload, &ms); err != nil {
				return nil, sectionErr(sectionTelemetry, err)
			}
			if err := reg.LoadSnapshot(ms); err != nil {
				return nil, sectionErr(sectionTelemetry, err)
			}
		}
	}
	return sim, nil
}

// RestoreSimulator reads a MOLC1 checkpoint file and rebuilds the
// simulator from it (see RestoreSimulatorBytes).
func RestoreSimulator(path string, tr *Tracer, reg *Registry) (*Simulator, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("molcache: read checkpoint %s: %w", path, err)
	}
	return RestoreSimulatorBytes(data, tr, reg)
}
