package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"molcache/internal/analysis"
)

// molvet runs the CLI in-process against the repository root and
// returns (exit, stdout, stderr).
func molvet(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"-C", root}, args...), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestUnknownRuleExitsWithKnownList(t *testing.T) {
	code, _, stderr := molvet(t, "-rules", "bogus", "./internal/analysis")
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, `unknown rule "bogus"`) {
		t.Errorf("stderr does not name the bad rule: %s", stderr)
	}
	// The error must enumerate every registered rule so the user can
	// correct the spelling without another round trip.
	for _, name := range analysis.RuleNames() {
		if !strings.Contains(stderr, name) {
			t.Errorf("stderr is missing known rule %s: %s", name, stderr)
		}
	}
}

func TestRulesFlagAcceptsRegisteredSubset(t *testing.T) {
	code, stdout, stderr := molvet(t, "-rules", "concurrency,lock-order", "./internal/server")
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stdout: %s stderr: %s", code, stdout, stderr)
	}
}

func TestListPrintsEveryRule(t *testing.T) {
	code, stdout, _ := molvet(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	lines := strings.Split(strings.TrimRight(stdout, "\n"), "\n")
	names := analysis.RuleNames()
	if len(lines) != len(names) {
		t.Fatalf("-list printed %d lines, want %d:\n%s", len(lines), len(names), stdout)
	}
	for i, name := range names {
		if !strings.HasPrefix(lines[i], name) {
			t.Errorf("-list line %d = %q, want prefix %q", i, lines[i], name)
		}
	}
}

// TestSweepIsCleanJSON runs the full production sweep the way CI does
// and requires the canonical empty-baseline output: exit 0 and a JSON
// empty array.
func TestSweepIsCleanJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	code, stdout, stderr := molvet(t, "-json", "./...")
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stdout: %s stderr: %s", code, stdout, stderr)
	}
	var diags []analysis.Diagnostic
	if err := json.Unmarshal([]byte(stdout), &diags); err != nil {
		t.Fatalf("-json output is not a diagnostics array: %v\n%s", err, stdout)
	}
	if len(diags) != 0 {
		t.Errorf("sweep produced %d findings, want 0:\n%s", len(diags), stdout)
	}
}
