package analysis

import (
	"go/token"
	"testing"
)

func TestMatchSuffix(t *testing.T) {
	cases := []struct {
		path, suffix string
		want         bool
	}{
		{"molcache/internal/cache", "internal/cache", true},
		{"internal/cache", "internal/cache", true},
		{"molcache/internal/analysis/testdata/src/internal/cache", "internal/cache", true},
		{"molcache/internal/cachex", "internal/cache", false},
		{"molcache/xinternal/cache", "internal/cache", false},
		{"molcache/internal/cache/sub", "internal/cache", false},
	}
	for _, c := range cases {
		if got := matchSuffix(c.path, c.suffix); got != c.want {
			t.Errorf("matchSuffix(%q, %q) = %v, want %v", c.path, c.suffix, got, c.want)
		}
	}
}

func TestIgnoreSetCovers(t *testing.T) {
	s := ignoreSet{{rule: "determinism", file: "f.go", line: 10}: true}
	if !s.covers("determinism", token.Position{Filename: "f.go", Line: 10}) {
		t.Error("directive must cover its own line")
	}
	if !s.covers("determinism", token.Position{Filename: "f.go", Line: 11}) {
		t.Error("directive must cover the line below")
	}
	if s.covers("determinism", token.Position{Filename: "f.go", Line: 12}) {
		t.Error("directive must not cover two lines below")
	}
	if s.covers("panic-discipline", token.Position{Filename: "f.go", Line: 10}) {
		t.Error("directive must not cover other rules")
	}
}

func TestRegisteredRules(t *testing.T) {
	want := []string{
		"concurrency",
		"determinism",
		"hotpath-alloc",
		"lock-order",
		"map-order",
		"panic-discipline",
		"sink-errors",
		"snapshot-coverage",
		"telemetry-names",
	}
	got := RuleNames()
	if len(got) != len(want) {
		t.Fatalf("RuleNames() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RuleNames() = %v, want %v", got, want)
		}
	}
	for _, r := range Rules() {
		if r.Doc() == "" {
			t.Errorf("rule %s has no doc line", r.Name())
		}
	}
}

// TestRepoIsClean runs every rule over the production module — the same
// sweep `make lint` does — and requires zero findings, so a violation
// that sneaks into the tree fails `go test` even when nobody runs
// molvet by hand.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := l.DiscoverPackages(root)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	var loaded []*Package
	for _, path := range paths {
		pkg, err := l.Load(path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		loaded = append(loaded, pkg)
		for _, d := range Run(cfg, pkg, nil) {
			t.Errorf("%s", d)
		}
	}
	// The cross-package dataflow rules run once over the whole sweep,
	// exactly as cmd/molvet does.
	for _, d := range RunModule(cfg, NewModule(loaded), nil) {
		t.Errorf("%s", d)
	}
}
