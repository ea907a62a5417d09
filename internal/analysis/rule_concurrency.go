package analysis

import (
	"go/ast"
	"go/types"
)

// concurrencyRule confines goroutines and channels to the packages that
// own scheduling (internal/runner), observability (internal/telemetry,
// internal/obs) and serving (internal/server, cmd/molcached).
// Everything else in the simulation stack is single-threaded by
// construction — that is what makes `-jobs N` safe: jobs share no
// mutable state, and a `go` statement anywhere else would be an
// untracked execution stream the determinism contract cannot see.
type concurrencyRule struct{}

func init() { Register(concurrencyRule{}) }

func (concurrencyRule) Name() string { return "concurrency" }

func (concurrencyRule) Doc() string {
	return "go statements and channel creation only in the concurrency-owning packages (runner, telemetry, obs, server)"
}

func (r concurrencyRule) Check(cfg Config, pkg *Package) []Diagnostic {
	if matchAny(pkg.Path, cfg.ConcurrencyAllowed) {
		return nil
	}
	var out []Diagnostic
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.GoStmt:
				out = append(out, diag(pkg, stmt, r.Name(),
					"go statement outside the concurrency-owning packages; route parallel work through internal/runner"))
			case *ast.CallExpr:
				id, ok := ast.Unparen(stmt.Fun).(*ast.Ident)
				if !ok || id.Name != "make" || len(stmt.Args) == 0 {
					return true
				}
				if _, builtin := pkg.Info.Uses[id].(*types.Builtin); !builtin {
					return true
				}
				if tv, ok := pkg.Info.Types[stmt.Args[0]]; ok && tv.IsType() {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						out = append(out, diag(pkg, stmt, r.Name(),
							"channel creation outside the concurrency-owning packages; route parallel work through internal/runner"))
					}
				}
			}
			return true
		})
	}
	return out
}
