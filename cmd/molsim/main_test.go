package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"molcache/internal/cache"
	"molcache/internal/molecular"
	"molcache/internal/trace"
)

// writeTrace records n references from two ASIDs as an MTR1 file and
// returns its path.
func writeTrace(t *testing.T, n int) string {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for i := 0; i < n; i++ {
		ref := trace.Ref{Addr: uint64(i) * 64, ASID: uint16(1 + i%2), Kind: trace.Read}
		if i%3 == 0 {
			ref.Kind = trace.Write
		}
		if err := w.Write(ref); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "refs.mtr")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// replayCounting replays path into a small traditional cache and
// returns how many references reached it.
func replayCounting(t *testing.T, path string) (int, []uint16, error) {
	t.Helper()
	l2, err := cache.New(cache.Config{Size: 64 << 10, Ways: 4, LineSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	replayed := 0
	asids, _, err := replayTrace(path, l2, nil, func() { replayed++ })
	return replayed, asids, err
}

func TestReplayTraceIntact(t *testing.T) {
	const n = 1000
	replayed, asids, err := replayCounting(t, writeTrace(t, n))
	if err != nil {
		t.Fatalf("replay of an intact trace: %v", err)
	}
	if replayed != n {
		t.Errorf("replayed %d refs, want all %d", replayed, n)
	}
	if len(asids) != 2 || asids[0] != 1 || asids[1] != 2 {
		t.Errorf("asids = %v, want [1 2] in first-seen order", asids)
	}
}

// TestReplayTraceTruncated: a trace cut mid-record is an error naming
// the file, not a normal report on the prefix before the cut.
func TestReplayTraceTruncated(t *testing.T) {
	path := writeTrace(t, 1000)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2+5], 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = replayCounting(t, path)
	if err == nil {
		t.Fatal("replay of a truncated trace succeeded, want an error")
	}
	if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("error %q should name the file and the truncation", err)
	}
}

// TestBuildCacheRejectsOverflowingSize: a size whose bytes overflow
// uint64 is rejected, not wrapped around to a small cache.
func TestBuildCacheRejectsOverflowingSize(t *testing.T) {
	for _, spec := range []string{
		"17592186044417MB:4",                      // 2^64 + 1 MB: would wrap to 1MB:4
		"molecular:18014398509481985KB:1x4:Randy", // 2^64 + 1 KB
	} {
		if c, _, err := buildCache(spec, 1); err == nil {
			t.Errorf("buildCache(%q) built %s, want an error", spec, c.Name())
		}
	}
	if _, _, err := buildCache("1MB:4", 1); err != nil {
		t.Errorf("buildCache(1MB:4): %v", err)
	}
}

// TestCheckerCadence: -check-invariants audits the molecular cache on
// every Nth access, and the summary counts violations per rule.
func TestCheckerCadence(t *testing.T) {
	mol := molecular.MustNew(molecular.Config{TotalSize: 256 << 10, Seed: 7})
	if newAuditor(mol, 0) != nil || newAuditor(nil, 10) != nil {
		t.Error("auditor built for cadence 0 or a traditional cache")
	}
	a := newAuditor(mol, 10)
	for i := 0; i < 35; i++ {
		mol.Access(trace.Ref{Addr: uint64(i) * 64, ASID: 1, Kind: trace.Write})
		a.tick()
	}
	if a.runs != 3 || len(a.violations) != 0 {
		t.Errorf("%d audits with %d violations, want 3 clean audits", a.runs, len(a.violations))
	}
	a.violations = []molecular.Violation{
		{Rule: "region-accounting"}, {Rule: "molecule-accounting"}, {Rule: "region-accounting"},
	}
	if got, want := a.summary(), "3 audits, 3 violations: molecule-accounting=1 region-accounting=2"; got != want {
		t.Errorf("summary %q, want %q", got, want)
	}
}
