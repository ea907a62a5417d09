package analysis

// Module is the cross-package view the dataflow rules
// (snapshot-coverage, hotpath-alloc, lock-order) check: every loaded
// package of one sweep, plus the shared CHA call graph built lazily over
// them. The per-file AST rules see one Package at a time; module rules
// see the whole set, so a contract whose two halves live in different
// packages (a lock acquired in internal/server while internal/obs holds
// its own) is checkable at all.
//
// The expensive artifacts are cached across rules: packages are loaded
// and type-checked once by the Loader, and the call graph is built once
// on first use and shared by every rule that asks for it.
type Module struct {
	// Packages are the swept packages in deterministic (load) order.
	Packages []*Package

	cg *CallGraph
}

// NewModule wraps a deterministic package list for module-level rules.
func NewModule(pkgs []*Package) *Module {
	return &Module{Packages: pkgs}
}

// CallGraph returns the module's CHA call graph, building it on first
// use and caching it for every subsequent rule.
func (m *Module) CallGraph() *CallGraph {
	if m.cg == nil {
		m.cg = BuildCallGraph(m.Packages)
	}
	return m.cg
}

// PackagesMatching returns the module packages whose import path matches
// any of the given suffixes, in module order.
func (m *Module) PackagesMatching(suffixes []string) []*Package {
	var out []*Package
	for _, p := range m.Packages {
		if matchAny(p.Path, suffixes) {
			out = append(out, p)
		}
	}
	return out
}

// directives unions every package's ignore and transient sets. Malformed
// directives are NOT re-reported here — the per-package Run already
// diagnoses them once.
func (m *Module) directives() (ignoreSet, transientSet) {
	ignores := ignoreSet{}
	transients := transientSet{}
	for _, p := range m.Packages {
		ig, tr, _ := p.directives()
		for k := range ig {
			ignores[k] = true
		}
		for k, v := range tr {
			transients[k] = v
		}
	}
	return ignores, transients
}

// ModuleRule is a rule that needs the cross-package view. Module rules
// still Register like per-package rules (their Check returns nil) and
// run once per sweep via RunModule.
type ModuleRule interface {
	Rule
	// CheckModule inspects the whole module and returns its findings.
	CheckModule(cfg Config, mod *Module) []Diagnostic
}

// RunModule runs every registered module rule (or only the named ones
// when names is non-empty) once over the module, applies the union of
// all packages' ignore directives, and returns the surviving
// diagnostics sorted by position.
func RunModule(cfg Config, mod *Module, names []string) []Diagnostic {
	selected := map[string]bool{}
	for _, n := range names {
		selected[n] = true
	}
	ignores, _ := mod.directives()
	var out []Diagnostic
	for _, r := range Rules() {
		mr, ok := r.(ModuleRule)
		if !ok {
			continue
		}
		if len(names) > 0 && !selected[r.Name()] {
			continue
		}
		for _, d := range mr.CheckModule(cfg, mod) {
			if ignores.covers(r.Name(), d.Pos) {
				continue
			}
			out = append(out, d)
		}
	}
	sortDiagnostics(out)
	return out
}
