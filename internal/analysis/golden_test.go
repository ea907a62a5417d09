package analysis

// Golden-file tests for molvet's diagnostics: each seeded fixture
// package under testdata/src is loaded exactly the way cmd/molvet loads
// production packages, every rule runs, and the rendered diagnostics
// (module-root-relative paths) are diffed against testdata/*.golden.
// Regenerate with:
//
//	go test ./internal/analysis -run Golden -update

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files with the current diagnostics")

// checkGolden diffs got against testdata/<name>.golden (rewriting it
// under -update), mirroring internal/experiments' pattern.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s diagnostics drifted from golden.\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

// loadFixture type-checks one testdata/src package under an import path
// whose suffix matches the real package it impersonates.
func loadFixture(t *testing.T, l *Loader, rel string) *Package {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", rel))
	if err != nil {
		t.Fatal(err)
	}
	importPath := l.ModulePath + "/internal/analysis/testdata/src/" + filepath.ToSlash(rel)
	pkg, err := l.LoadDir(dir, importPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", rel, err)
	}
	return pkg
}

// render prints diagnostics one per line with module-root-relative
// paths, so the goldens are machine-independent.
func render(t *testing.T, root string, ds []Diagnostic) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, d := range ds {
		rel, err := filepath.Rel(root, d.File)
		if err != nil {
			t.Fatal(err)
		}
		d.File = filepath.ToSlash(rel)
		buf.WriteString(d.String())
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func TestGoldenDiagnostics(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, fixture := range []string{"internal/cache", "internal/engine", "internal/molecular", "internal/obs", "internal/server"} {
		name := strings.TrimPrefix(fixture, "internal/")
		t.Run(name, func(t *testing.T) {
			l, err := NewLoader(root)
			if err != nil {
				t.Fatal(err)
			}
			pkg := loadFixture(t, l, fixture)
			ds := Run(DefaultConfig(), pkg, nil)
			if len(ds) == 0 {
				t.Fatal("fixture produced no diagnostics; the seeding is broken")
			}
			checkGolden(t, name, render(t, root, ds))
		})
	}
}

// TestFixtureSuppression pins the directive semantics the fixtures rely
// on: the reasoned ignore in Sanctioned suppresses its clock read, while
// the malformed directives in Misdirected are themselves diagnosed.
func TestFixtureSuppression(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg := loadFixture(t, l, "internal/cache")
	var directives, determinism int
	for _, d := range Run(DefaultConfig(), pkg, nil) {
		switch d.Rule {
		case "directive":
			directives++
		case "determinism":
			determinism++
		}
	}
	if directives != 2 {
		t.Errorf("directive diagnostics = %d, want 2 (unknown rule + missing reason)", directives)
	}
	// Stamp, Getenv and Intn are findings; Sanctioned's time.Now is not.
	if determinism != 3 {
		t.Errorf("determinism diagnostics = %d, want 3 (Sanctioned must be suppressed)", determinism)
	}
}
