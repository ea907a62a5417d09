// Package analysis is molvet's engine: a zero-dependency static-analysis
// framework that loads the whole module with go/parser and go/types and
// runs project rules over every package.
//
// The rules encode the contracts the rest of the repository depends on
// but the compiler cannot check:
//
//   - determinism: the golden-file tests (internal/experiments) and the
//     byte-identical parallel sweeps (internal/runner) only hold because
//     simulation code never reads wall clocks, environment variables or
//     the global math/rand source, and never emits output in map
//     iteration order.
//   - concurrency discipline: goroutines and channels are confined to
//     internal/runner, internal/telemetry and internal/obs, so the
//     simulation core stays single-threaded by construction and the
//     race detector's clean bill actually means something.
//   - telemetry discipline: metric names are grep-able string
//     literals in the project namespaces, never assembled with
//     fmt.Sprintf.
//   - error discipline: library packages reserve panic for constructor
//     validation and documented contracts, and telemetry sinks never
//     drop Write/Flush/Close errors.
//
// Each rule is a self-registered Rule implementation; diagnostics carry
// file:line:col positions and can be suppressed, one line at a time,
// with a reasoned `//molvet:ignore rule-name reason` directive.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one rule finding at a source position.
type Diagnostic struct {
	// Pos locates the finding (file, line, column).
	Pos token.Position `json:"-"`
	// File, Line and Col mirror Pos for JSON output.
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	// Rule is the reporting rule's name.
	Rule string `json:"rule"`
	// Message states the violation and, where useful, the fix.
	Message string `json:"message"`
}

// String renders the conventional file:line:col: rule: message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

// Config scopes the rules to the project's package layout. Packages are
// matched by import-path suffix ("internal/cache" matches both
// molcache/internal/cache and a testdata package ending in
// internal/cache), so the rule set behaves identically over the real
// module and over seeded test fixtures.
type Config struct {
	// SimPackages are the simulation packages the determinism and
	// map-order rules police: their output feeds golden files, so wall
	// clocks, environment reads, global RNG state and map-ordered
	// emission are forbidden.
	SimPackages []string
	// MapOrderExtra are additional packages (beyond SimPackages) the
	// map-order rule covers — the telemetry exporters, whose snapshot
	// text is diffed by tests.
	MapOrderExtra []string
	// ConcurrencyAllowed are the only packages that may start goroutines
	// or create channels.
	ConcurrencyAllowed []string

	// Snapshots are the persisted structs whose fields snapshot-coverage
	// diffs against their capture/restore closures.
	Snapshots []SnapshotSurface

	// HotPathRoots are the fast-path entry points (Type.Method) whose
	// call-graph closure hotpath-alloc keeps allocation-free.
	HotPathRoots []string
	// HotPathPackages bound the hotpath-alloc walk: only functions
	// declared in these packages are swept.
	HotPathPackages []string
	// HotPathStops are sanctioned slow-path functions (Type.Method or
	// plain names) the hotpath-alloc walk does not descend into —
	// refills, growth, retirement and error paths that may allocate.
	HotPathStops []string

	// LockPackages are the packages whose mutex acquisitions feed the
	// lock-order graph.
	LockPackages []string
}

// SnapshotSurface names one persisted struct and its checkpoint
// closure. Every field of Package.Struct must be read somewhere in the
// Capture closure AND written somewhere in the Restore closure (each
// closure = the named functions plus all same-package functions they
// reach), or carry a //molvet:transient reason directive.
type SnapshotSurface struct {
	// Package is the import-path suffix declaring the struct.
	Package string
	// Struct is the persisted struct type's name.
	Struct string
	// Capture are function or Type.Method names whose closure must read
	// every persistent field.
	Capture []string
	// Restore are function or Type.Method names whose closure must
	// write every persistent field.
	Restore []string
}

// DefaultConfig is the repository's contract.
func DefaultConfig() Config {
	return Config{
		SimPackages: []string{
			"internal/molecular",
			"internal/cache",
			"internal/engine",
			"internal/resize",
			"internal/experiments",
			"internal/cmp",
			"internal/faults",
			"internal/runner",
		},
		MapOrderExtra: []string{
			"internal/telemetry",
		},
		ConcurrencyAllowed: []string{
			"internal/runner",
			"internal/telemetry",
			// The observability plane runs an HTTP server and event
			// broadcast next to the single-threaded simulation; its
			// handlers reach simulation state only through their
			// command's state source: a published immutable snapshot,
			// or one collected under the owner's lock.
			"internal/obs",
			// The serving layer runs one goroutine per connection; each
			// reaches the simulator, journal, value store and tenant
			// table only inside a critical section under the server's
			// one mutex, so the access stream stays a single ordered
			// sequence. cmd/molcached itself only makes the signal
			// channel its main loop blocks on.
			"internal/server",
			"cmd/molcached",
		},

		Snapshots: []SnapshotSurface{
			{
				Package: "internal/molecular", Struct: "Cache",
				Capture: []string{"Cache.CaptureState"},
				Restore: []string{"RestoreCache"},
			},
			{
				Package: "internal/resize", Struct: "Controller",
				Capture: []string{"Controller.CaptureState"},
				Restore: []string{"Controller.RestoreState"},
			},
			{
				Package: "internal/faults", Struct: "Injector",
				Capture: []string{"Injector.CursorState"},
				Restore: []string{"Injector.RestoreCursors"},
			},
		},

		HotPathRoots: []string{
			"Cache.Access",
		},
		HotPathPackages: []string{
			"internal/molecular",
		},
		HotPathStops: []string{
			// Sanctioned slow paths off the fast path: region creation
			// (auto-admission on first touch), structural growth and
			// degradation may allocate.
			"Cache.admit",
			"Cache.Grow",
			"Cache.RetireMolecule",
			"Cache.CorruptLine",
		},

		LockPackages: []string{
			"internal/obs",
			"internal/telemetry",
			"internal/server",
		},
	}
}

// matchSuffix reports whether importPath is suffix or ends in /suffix.
func matchSuffix(importPath, suffix string) bool {
	return importPath == suffix || strings.HasSuffix(importPath, "/"+suffix)
}

// matchAny reports whether importPath matches any suffix in the list.
func matchAny(importPath string, suffixes []string) bool {
	for _, s := range suffixes {
		if matchSuffix(importPath, s) {
			return true
		}
	}
	return false
}

// Rule is one checkable project contract. Implementations register
// themselves in an init func via Register.
type Rule interface {
	// Name is the short identifier diagnostics and ignore directives use.
	Name() string
	// Doc is a one-line description for molvet -rules.
	Doc() string
	// Check inspects one loaded package and returns its findings.
	Check(cfg Config, pkg *Package) []Diagnostic
}

var rules = map[string]Rule{}

// Register adds a rule to the global set; duplicate names are a
// programming error caught at init time. It panics on a duplicate.
func Register(r Rule) {
	if _, dup := rules[r.Name()]; dup {
		panic("analysis: duplicate rule " + r.Name())
	}
	rules[r.Name()] = r
}

// Rules returns every registered rule, sorted by name.
func Rules() []Rule {
	out := make([]Rule, 0, len(rules))
	for _, r := range rules {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// RuleNames returns the sorted registered rule names.
func RuleNames() []string {
	out := make([]string, 0, len(rules))
	for n := range rules {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Run checks pkg with every rule (or only the named ones when names is
// non-empty), applies the package's ignore directives, and returns the
// surviving diagnostics sorted by position. Malformed or reasonless
// directives are reported under the "directive" pseudo-rule.
func Run(cfg Config, pkg *Package, names []string) []Diagnostic {
	var selected []Rule
	if len(names) == 0 {
		selected = Rules()
	} else {
		for _, n := range names {
			if r, ok := rules[n]; ok {
				selected = append(selected, r)
			}
		}
	}
	ignores, _, bad := pkg.directives()
	var out []Diagnostic
	out = append(out, bad...)
	for _, r := range selected {
		for _, d := range r.Check(cfg, pkg) {
			if ignores.covers(r.Name(), d.Pos) {
				continue
			}
			out = append(out, d)
		}
	}
	sortDiagnostics(out)
	return out
}

// Sort orders diagnostics by file, line, column and rule — for callers
// that merge per-package and module-level findings into one report.
func Sort(ds []Diagnostic) { sortDiagnostics(ds) }

// sortDiagnostics orders by file, then line, then column, then rule.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
}

// diag builds a Diagnostic for a node in pkg.
func diag(pkg *Package, node ast.Node, rule, format string, args ...any) Diagnostic {
	return diagAt(pkg, node.Pos(), rule, format, args...)
}

// diagAt builds a Diagnostic at a raw token position in pkg — for
// findings anchored to type objects (struct fields) rather than AST
// nodes.
func diagAt(pkg *Package, at token.Pos, rule, format string, args ...any) Diagnostic {
	pos := pkg.Fset.Position(at)
	return Diagnostic{
		Pos:     pos,
		File:    pos.Filename,
		Line:    pos.Line,
		Col:     pos.Column,
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
	}
}
