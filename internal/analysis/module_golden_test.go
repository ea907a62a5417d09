package analysis

// Golden-file tests for the cross-package dataflow rules: each fixture
// module under testdata/src/<set>/ is loaded the way cmd/molvet loads a
// sweep, the one rule under test runs via RunModule, and the rendered
// diagnostics are diffed against testdata/<set>.golden (refreshable
// with -update, like the per-package goldens).

import (
	"strings"
	"testing"
)

// moduleFixtures maps each dataflow rule to its seeded fixture module.
var moduleFixtures = []struct {
	name string
	rule string
	pkgs []string
}{
	{"snapcov", "snapshot-coverage", []string{"snapcov/internal/molecular"}},
	{"hotpath", "hotpath-alloc", []string{"hotpath/internal/molecular"}},
	{"lockorder", "lock-order", []string{"lockorder/internal/obs"}},
}

// loadFixtureModule type-checks a set of fixture packages under one
// loader and wraps them as a Module.
func loadFixtureModule(t *testing.T, root string, rels []string) *Module {
	t.Helper()
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, rel := range rels {
		pkgs = append(pkgs, loadFixture(t, l, rel))
	}
	return NewModule(pkgs)
}

func TestModuleGoldenDiagnostics(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, fx := range moduleFixtures {
		t.Run(fx.name, func(t *testing.T) {
			mod := loadFixtureModule(t, root, fx.pkgs)
			ds := RunModule(DefaultConfig(), mod, []string{fx.rule})
			if len(ds) == 0 {
				t.Fatal("fixture produced no diagnostics; the seeding is broken")
			}
			for _, d := range ds {
				if d.Rule != fx.rule {
					t.Errorf("unexpected rule %s in %s fixture: %s", d.Rule, fx.name, d)
				}
			}
			checkGolden(t, fx.name, render(t, root, ds))
		})
	}
}

// TestSnapshotCoverageCatchesDroppedField pins the acceptance contract
// directly: the fixture field CaptureState never reads (misses) and the
// field RestoreCache never writes (probes) are both findings, and the
// transient-marked and mutex fields are not.
func TestSnapshotCoverageCatchesDroppedField(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	mod := loadFixtureModule(t, root, []string{"snapcov/internal/molecular"})
	ds := RunModule(DefaultConfig(), mod, []string{"snapshot-coverage"})
	var gotMisses, gotProbes bool
	for _, d := range ds {
		if strings.Contains(d.Message, "Cache.misses") {
			gotMisses = true
		}
		if strings.Contains(d.Message, "Cache.probes") {
			gotProbes = true
		}
		for _, sanctioned := range []string{"Cache.index", "Cache.mu", "Cache.clock", "Cache.hits"} {
			if strings.Contains(d.Message, sanctioned+" ") {
				t.Errorf("covered or exempt field flagged: %s", d)
			}
		}
	}
	if !gotMisses {
		t.Error("uncaptured field misses produced no finding")
	}
	if !gotProbes {
		t.Error("unrestored field probes produced no finding")
	}
}
