package molcache_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"molcache"
	"molcache/internal/molecular"
	"molcache/internal/resize"
	"molcache/internal/snapshot"
)

// ckptConfig is the small simulator geometry the facade checkpoint tests
// run on (the heavyweight cross-policy sweep lives in the differential
// oracle; these tests exercise the file path and the error model).
func ckptConfig() (molcache.MolecularConfig, molcache.ResizeConfig) {
	mcfg := molcache.MolecularConfig{
		TotalSize:       512 << 10,
		MoleculeSize:    8 << 10,
		TilesPerCluster: 4,
		Clusters:        2,
		Policy:          molecular.RandyReplacement,
		LineFactor:      2,
		Seed:            77,
	}
	rcfg := molcache.ResizeConfig{
		Period:        400,
		MinPeriod:     200,
		MaxPeriod:     5_000,
		MaxAllocation: 4,
		DefaultGoal:   0.2,
	}
	return mcfg, rcfg
}

// ckptSim builds a telemetry-attached simulator and runs it through the
// first half of the reference trace, returning the remaining refs.
func ckptSim(t *testing.T, reg *molcache.Registry) (*molcache.Simulator, []molcache.Ref) {
	t.Helper()
	mcfg, rcfg := ckptConfig()
	sim, err := molcache.NewSimulator(mcfg, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.AttachTelemetry(nil, reg)
	refs := diffTrace(99)
	cut := len(refs) / 2
	for _, r := range refs[:cut] {
		sim.Access(r)
	}
	return sim, refs[cut:]
}

// TestCheckpointFileRoundTrip drives the file-level API: Checkpoint
// writes atomically (including over an existing checkpoint), leaves no
// temp litter, and RestoreSimulator continues byte-identically.
func TestCheckpointFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.molc")
	reg := molcache.NewRegistry()
	sim, rest := ckptSim(t, reg)

	if err := sim.Checkpoint(path); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// Overwriting an existing checkpoint must also be atomic.
	if err := sim.Checkpoint(path); err != nil {
		t.Fatalf("Checkpoint overwrite: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}

	sim2, err := molcache.RestoreSimulator(path)
	if err != nil {
		t.Fatalf("RestoreSimulator: %v", err)
	}
	reg2 := molcache.NewRegistry()
	sim2.AttachTelemetry(nil, reg2)
	for i, r := range rest {
		ra, rb := sim.Access(r), sim2.Access(r)
		if ra != rb {
			t.Fatalf("access %d after restore: %+v != %+v", i, ra, rb)
		}
	}
	if a, b := *sim.Cache.Ledger(), *sim2.Cache.Ledger(); a.Total != b.Total {
		t.Errorf("ledger totals diverged: %+v != %+v", a.Total, b.Total)
	}
	if a, b := reg.Snapshot(), reg2.Snapshot(); !reflect.DeepEqual(a, b) {
		t.Errorf("registries diverged:\nuninterrupted: %+v\nrestored: %+v", a, b)
	}
}

// TestRestoreCorruptionTyped feeds damaged checkpoints to the restore
// path: every failure mode must surface as a typed *SnapshotError naming
// the failing section — never a panic, never an untyped error.
func TestRestoreCorruptionTyped(t *testing.T) {
	reg := molcache.NewRegistry()
	sim, _ := ckptSim(t, reg)
	data, err := sim.EncodeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}

	// mutate re-encodes the container after damaging one section's
	// payload through a JSON round trip, so the envelope CRCs are valid
	// and only the semantic validation can catch it.
	mutate := func(t *testing.T, section string, fn func(payload []byte) []byte) []byte {
		t.Helper()
		sections, err := snapshot.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		for i := range sections {
			if sections[i].Name == section {
				sections[i].Payload = fn(sections[i].Payload)
			}
		}
		out, err := snapshot.Encode(sections)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	cases := []struct {
		name    string
		damaged []byte
		section string // "" means any section is acceptable
	}{
		{"empty", nil, "header"},
		{"truncated", data[:len(data)/3], ""},
		{"bad-magic", append([]byte("NOTIT"), data[5:]...), "header"},
		{"version-skew", func() []byte {
			d := append([]byte(nil), data...)
			d[5] = 99
			return d
		}(), "header"},
		{"payload-bit-flip", func() []byte {
			d := append([]byte(nil), data...)
			d[len(d)-10] ^= 0x40
			return d
		}(), ""},
		{"cache-semantic", mutate(t, "cache", func(p []byte) []byte {
			var st molecular.CacheState
			if err := json.Unmarshal(p, &st); err != nil {
				t.Fatal(err)
			}
			if len(st.Molecules) == 0 {
				t.Fatal("no molecules in checkpoint")
			}
			st.Molecules[0].ID = 1 << 20 // out of order and out of range
			out, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}), "cache"},
		{"resize-semantic", mutate(t, "resize", func(p []byte) []byte {
			var st resize.ControllerState
			if err := json.Unmarshal(p, &st); err != nil {
				t.Fatal(err)
			}
			st.Decisions = append(st.Decisions, resize.Decision{})
			st.DecisionSeq = 0 // retained entries now exceed lifetime count
			out, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}), "resize"},
		{"cache-not-json", mutate(t, "cache", func([]byte) []byte {
			return []byte("not json")
		}), "cache"},
		{"noc-section", func() []byte {
			sections, err := snapshot.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			sections = append(sections, snapshot.Section{Name: "noc",
				Payload: []byte(`{"Messages":10,"Hops":14,"LocalMessages":3}`)})
			out, err := snapshot.Encode(sections)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}(), "noc"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			_, err := molcache.RestoreSimulatorBytes(tc.damaged)
			if err == nil {
				t.Fatal("damaged checkpoint restored without error")
			}
			var se *molcache.SnapshotError
			if !errors.As(err, &se) {
				t.Fatalf("error is not a *SnapshotError: %v", err)
			}
			if tc.section != "" && se.Section != tc.section {
				t.Fatalf("error names section %q, want %q (%v)", se.Section, tc.section, err)
			}
		})
	}
}

// editJSON decodes a checkpoint section's JSON object, lets edit change
// it and re-encodes it: keys no Go struct declares survive the trip, and
// numbers keep every digit (a 64-bit tag does not fit a float64).
func editJSON(t *testing.T, payload []byte, edit func(map[string]any)) []byte {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.UseNumber()
	var st map[string]any
	if err := dec.Decode(&st); err != nil {
		t.Fatal(err)
	}
	edit(st)
	out, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRestoreRefusesSharedBit restores a checkpoint whose cache section
// sets the paper's shared bit on a molecule. The simulator does not
// model the bit, so continuing would not reproduce the run that wrote
// it: the restore must fail with a *SnapshotError naming the cache.
func TestRestoreRefusesSharedBit(t *testing.T) {
	sim, _ := ckptSim(t, molcache.NewRegistry())
	data, err := sim.EncodeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	sections, err := snapshot.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sections {
		if sections[i].Name == "cache" {
			sections[i].Payload = editJSON(t, sections[i].Payload, func(st map[string]any) {
				st["molecules"].([]any)[3].(map[string]any)["shared"] = true
			})
		}
	}
	if data, err = snapshot.Encode(sections); err != nil {
		t.Fatal(err)
	}
	_, err = molcache.RestoreSimulatorBytes(data)
	var se *molcache.SnapshotError
	if !errors.As(err, &se) || se.Section != "cache" || !strings.Contains(se.Reason, "molecule 3 has the shared bit set") {
		t.Fatalf("restore of a shared-bit molecule returned %v, want a *SnapshotError naming cache and the bit", err)
	}
}

// TestRestoreIgnoresDroppedKeys restores a checkpoint carrying the keys
// and sections of state the simulator no longer keeps — the cache clock
// and remote-cycle total (now the regions' sum), each molecule's hit and
// access counts, each application's last miss rate, each region's own
// ledger (its ASID's ledger cell holds the same counts), the probe
// histogram's maximum, the resize config's per-application daemon cost
// (now a constant), and the meta and telemetry sections of earlier
// builds, whose telemetry copied counts the cache and controller now
// keep — set to arbitrary values, and continues it next to the
// uninterrupted run: nothing reads them, so the continuation is
// identical access by access, in every state the checkpoint holds and
// in a registry attached after the restore, where no injected value
// shows.
func TestRestoreIgnoresDroppedKeys(t *testing.T) {
	reg := molcache.NewRegistry()
	sim, rest := ckptSim(t, reg)
	data, err := sim.EncodeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	sections, err := snapshot.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	var molecules, regions, apps int
	for i := range sections {
		switch sections[i].Name {
		case "cache":
			sections[i].Payload = editJSON(t, sections[i].Payload, func(st map[string]any) {
				st["clock"] = 987654321
				st["remote_cycles"] = 55555
				for j, m := range st["molecules"].([]any) {
					m.(map[string]any)["hits"] = 1000 + j
					m.(map[string]any)["accesses"] = 5 * j
					molecules++
				}
				for j, r := range st["regions"].([]any) {
					r.(map[string]any)["ledger"] = map[string]any{"Hits": 31 * j, "Misses": 1 << 40}
					regions++
				}
				st["probes"].(map[string]any)["Max"] = 4242
			})
		case "config":
			sections[i].Payload = editJSON(t, sections[i].Payload, func(st map[string]any) {
				st["resize"].(map[string]any)["CostCyclesPerApp"] = 98765
			})
		case "resize":
			sections[i].Payload = editJSON(t, sections[i].Payload, func(st map[string]any) {
				for j, a := range st["apps"].([]any) {
					a.(map[string]any)["last_miss"] = 0.75 - 0.1*float64(j)
					a.(map[string]any)["have_last"] = j%2 == 0
					apps++
				}
			})
		}
	}
	if molecules == 0 || regions == 0 || apps == 0 {
		t.Fatalf("checkpoint holds %d molecules, %d regions and %d applications; the injection is vacuous",
			molecules, regions, apps)
	}
	sections = append(sections,
		snapshot.Section{Name: "meta", Payload: []byte(`{"addresses":123456789}`)},
		snapshot.Section{Name: "telemetry", Payload: []byte(`{
			"counters": {
				"molcache_index_lookups_total": 45418,
				"molcache_molecular_hits_total": 1099511627776,
				"molcache_molecular_remote_tile_hits_total": 777,
				"molcache_molecular_writebacks_total": 888,
				"molcache_resize_actions_total{action=\"shrink\"}": 999,
				"molcache_fault_uncached_bypasses_total": 12
			},
			"gauges": {"molcache_fault_retired_molecules": 3},
			"histograms": {"molcache_access_service_cycles{asid=\"1\"}": {"count": 5, "sum": 60,
				"buckets": [{"le": "16", "count": 5}, {"le": "+Inf", "count": 5}]}}
		}`)})
	data, err = snapshot.Encode(sections)
	if err != nil {
		t.Fatal(err)
	}
	sim2, err := molcache.RestoreSimulatorBytes(data)
	if err != nil {
		t.Fatalf("RestoreSimulatorBytes: %v", err)
	}
	reg2 := molcache.NewRegistry()
	sim2.AttachTelemetry(nil, reg2)
	for i, r := range rest {
		ra, rb := sim.Access(r), sim2.Access(r)
		if ra != rb {
			t.Fatalf("access %d after restore: %+v != %+v", i, ra, rb)
		}
	}
	if !reflect.DeepEqual(sim.Cache.CaptureState(), sim2.Cache.CaptureState()) {
		t.Error("cache states diverged")
	}
	if !reflect.DeepEqual(sim.Controller.CaptureState(), sim2.Controller.CaptureState()) {
		t.Error("controller states diverged")
	}
	if a, b := sim.Cache.RemoteCycles(), sim2.Cache.RemoteCycles(); a != b {
		t.Errorf("remote cycles diverged: %d != %d", a, b)
	}
	a, b := reg.Snapshot(), reg2.Snapshot()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("registries diverged:\nuninterrupted: %+v\nrestored: %+v", a, b)
	}
	if _, ok := b.Counters["molcache_index_lookups_total"]; ok {
		t.Error("restored registry publishes the deleted molcache_index_lookups_total")
	}
}

// TestRestoreRefusesOversizedWindows restores checkpoints whose resize
// windows hold more than the counts they are read from: a region window
// past its ASID's ledger cell, and the global window past the ledger
// total. A window is a mark on its count, so neither has a mark to
// restore. A region's NoC-penalized accesses are a share of its ledger
// cell too, so a checkpoint with more of them than the cell counts is
// refused the same way. Each restore must fail with a *SnapshotError
// naming the cache.
func TestRestoreRefusesOversizedWindows(t *testing.T) {
	sim, _ := ckptSim(t, molcache.NewRegistry())
	data, err := sim.EncodeCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	// Each edit sets one window to its count plus one miss.
	oneMore := func(hm any) map[string]any {
		m := hm.(map[string]any)
		misses, err := m["Misses"].(json.Number).Int64()
		if err != nil {
			t.Fatal(err)
		}
		return map[string]any{"Hits": m["Hits"], "Misses": misses + 1}
	}
	for _, tc := range []struct {
		name, reason string
		edit         func(st map[string]any)
	}{
		{"region", "window", func(st map[string]any) {
			r := st["regions"].([]any)[0].(map[string]any)
			for _, a := range st["ledger_apps"].([]any) {
				if app := a.(map[string]any); app["asid"] == r["asid"] {
					r["window"] = oneMore(app["hm"])
				}
			}
		}},
		{"global", "global window", func(st map[string]any) {
			st["global"] = oneMore(st["ledger_total"])
		}},
		{"noc", "NoC-penalized accesses", func(st map[string]any) {
			r := st["regions"].([]any)[0].(map[string]any)
			for _, a := range st["ledger_apps"].([]any) {
				if app := a.(map[string]any); app["asid"] == r["asid"] {
					noc := r["noc"].(map[string]any)
					noc["accesses"] = oneMore(app["hm"])
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sections, err := snapshot.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			for i := range sections {
				if sections[i].Name == "cache" {
					sections[i].Payload = editJSON(t, sections[i].Payload, tc.edit)
				}
			}
			edited, err := snapshot.Encode(sections)
			if err != nil {
				t.Fatal(err)
			}
			_, err = molcache.RestoreSimulatorBytes(edited)
			var se *molcache.SnapshotError
			if !errors.As(err, &se) || se.Section != "cache" || !strings.Contains(se.Reason, tc.reason) {
				t.Fatalf("restore of an oversized %s count returned %v, want a *SnapshotError naming cache and %q", tc.name, err, tc.reason)
			}
		})
	}
}

// TestRestoreParentCheckpoint restores testdata/checkpoint-with-telemetry.molc,
// a checkpoint written by the last build whose checkpoints carried a
// meta and a telemetry section (commit 1408dff): a faulted Randy
// simulator with a registry attached, checkpointed after the first
// 6,000 references of diffTrace(99). It continues the restored
// simulator over diffTrace(2026) with a registry attached, and the
// digest of the continuation's results, ledger and decision log must
// equal testdata/checkpoint-with-telemetry.sha256, the digest that
// build computed for its own continuation.
func TestRestoreParentCheckpoint(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "checkpoint-with-telemetry.molc"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "checkpoint-with-telemetry.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	sections, err := snapshot.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"meta", "telemetry", "faults"} {
		if _, err := snapshot.Find(sections, name); err != nil {
			t.Fatalf("fixture lacks its %s section: %v", name, err)
		}
	}
	sim, err := molcache.RestoreSimulatorBytes(data)
	if err != nil {
		t.Fatalf("RestoreSimulatorBytes: %v", err)
	}
	sim.AttachTelemetry(nil, molcache.NewRegistry())
	if got := continuationDigest(t, sim); got != strings.TrimSpace(string(want)) {
		t.Errorf("continuation digest %s, want %s", got, strings.TrimSpace(string(want)))
	}
}

// continuationDigest runs diffTrace(2026) through sim and returns the
// SHA-256 of every access's result, the final ledger (total, then each
// ASID's cell in ASID order) and the decision log as JSON.
func continuationDigest(t *testing.T, sim *molcache.Simulator) string {
	t.Helper()
	h := sha256.New()
	for _, r := range diffTrace(2026) {
		fmt.Fprintf(h, "%+v\n", sim.Access(r))
	}
	l := sim.Cache.Ledger()
	fmt.Fprintf(h, "total %+v\n", l.Total)
	for _, asid := range l.ASIDs() {
		fmt.Fprintf(h, "app %d %+v\n", asid, l.App(asid))
	}
	dec, err := json.Marshal(sim.Controller.Decisions())
	if err != nil {
		t.Fatal(err)
	}
	h.Write(dec)
	return hex.EncodeToString(h.Sum(nil))
}
