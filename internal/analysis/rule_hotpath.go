package analysis

// hotpath-alloc: the access fast path stays allocation-free. The
// 0 allocs/op numbers of the access benchmarks are a load-bearing property
// (the differential oracle replays millions of accesses), and they are
// one innocent fmt.Errorf away from quietly regressing. This rule walks
// the call-graph closure of the configured HotPathRoots (Cache.Access),
// bounded to HotPathPackages and cut at the sanctioned HotPathStops
// (growth, retirement and corruption slow paths), and flags the
// allocation idioms the compiler will not keep on the stack:
//
//   - fmt package calls (Sprintf/Errorf format-and-box on every call)
//   - escaping composite literals (&T{...})
//   - interface boxing: a concrete non-pointer argument passed to an
//     interface parameter
//   - append whose destination is not a plain local variable
//     (field- or global-rooted appends grow retained buffers)
//
// Arguments of panic calls are exempt: a failing run may allocate.
//
// Soundness caveats: closures and func values called indirectly are
// walked only where the literal is created; stack-vs-heap is decided
// by the real escape analysis, so a flagged site can be a false
// positive the benchmarks would tolerate — the stop list and reasoned
// ignores are the pressure valve.

import (
	"go/ast"
	"go/token"
	"go/types"
)

func init() { Register(hotpathRule{}) }

type hotpathRule struct{}

func (hotpathRule) Name() string { return "hotpath-alloc" }

func (hotpathRule) Doc() string {
	return "the Access fast-path closure is free of fmt calls, escaping literals, boxing and retained appends"
}

// Check is a no-op: the rule runs once per module via CheckModule.
func (hotpathRule) Check(cfg Config, pkg *Package) []Diagnostic { return nil }

func (hotpathRule) CheckModule(cfg Config, mod *Module) []Diagnostic {
	g := mod.CallGraph()
	var roots []*FuncNode
	for _, n := range g.Nodes() {
		if n.Obj != nil && matchFuncName(n.Obj, cfg.HotPathRoots) &&
			matchAny(n.Pkg.Path, cfg.HotPathPackages) {
			roots = append(roots, n)
		}
	}
	inScope := func(n *FuncNode) bool {
		if !matchAny(n.Pkg.Path, cfg.HotPathPackages) {
			return false
		}
		return n.Obj == nil || !matchFuncName(n.Obj, cfg.HotPathStops)
	}
	reach := g.Reachable(roots, inScope)
	var out []Diagnostic
	for _, n := range g.Nodes() { // deterministic order
		if reach[n] && inScope(n) {
			out = append(out, checkHotBody(n)...)
		}
	}
	return out
}

// checkHotBody scans one fast-path function body. Nested literal
// bodies are skipped: they are their own graph nodes and are scanned
// when reached.
func checkHotBody(n *FuncNode) []Diagnostic {
	p := n.Pkg
	exempt := panicArgRanges(n.Body)
	var out []Diagnostic
	ast.Inspect(n.Body, func(x ast.Node) bool {
		if x == nil {
			return true
		}
		if lit, ok := x.(*ast.FuncLit); ok && lit != n.Lit {
			out = append(out, diag(p, lit, "hotpath-alloc",
				"closure created on the access fast path allocates; hoist it or restructure"))
			return false
		}
		if exempt.covers(x.Pos()) {
			return true
		}
		switch x := x.(type) {
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, isLit := ast.Unparen(x.X).(*ast.CompositeLit); isLit {
					out = append(out, diag(p, x, "hotpath-alloc",
						"escaping composite literal allocates on the access fast path"))
				}
			}
		case *ast.AssignStmt:
			out = append(out, checkHotAppend(p, x)...)
		case *ast.CallExpr:
			out = append(out, checkHotCall(p, x)...)
		}
		return true
	})
	return out
}

// checkHotCall flags fmt calls and interface boxing at one call site.
func checkHotCall(p *Package, call *ast.CallExpr) []Diagnostic {
	obj, _ := p.calleeObject(call).(*types.Func)
	if obj == nil {
		return nil
	}
	if obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
		return []Diagnostic{diag(p, call, "hotpath-alloc",
			"fmt.%s call on the access fast path formats and allocates; precompute or move off the hot path", obj.Name())}
	}
	sig, _ := obj.Type().(*types.Signature)
	if sig == nil {
		return nil
	}
	var out []Diagnostic
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (!sig.Variadic() && i < params.Len()):
			pt = params.At(i).Type()
		case sig.Variadic() && params.Len() > 0:
			if call.Ellipsis.IsValid() {
				pt = params.At(params.Len() - 1).Type() // s... passes the slice as-is
			} else if slice, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = slice.Elem()
			}
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := p.typeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue
		}
		if b, ok := at.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		if _, isPtr := at.Underlying().(*types.Pointer); isPtr {
			continue // pointers box without allocating
		}
		out = append(out, diag(p, arg, "hotpath-alloc",
			"boxing %s into interface parameter of %s allocates on the access fast path", at.String(), funcDisplayName(obj)))
	}
	return out
}

// checkHotAppend flags appends whose destination is retained state: any
// LHS that is not a plain local identifier.
func checkHotAppend(p *Package, as *ast.AssignStmt) []Diagnostic {
	if len(as.Lhs) != len(as.Rhs) {
		return nil
	}
	var out []Diagnostic
	for i, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "append" {
			continue
		}
		if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); !isBuiltin {
			continue
		}
		lhs := ast.Unparen(as.Lhs[i])
		if base, ok := lhs.(*ast.Ident); ok {
			if v, isVar := lookupIdent(p, base).(*types.Var); isVar && !packageLevel(v) {
				continue // growing a local slice: bounded by the caller
			}
		}
		out = append(out, diag(p, call, "hotpath-alloc",
			"append to retained state on the access fast path grows an unbounded buffer; preallocate or move off the hot path"))
	}
	return out
}

// posRanges is a set of source ranges.
type posRanges []struct{ lo, hi token.Pos }

func (r posRanges) covers(pos token.Pos) bool {
	for _, rr := range r {
		if rr.lo <= pos && pos <= rr.hi {
			return true
		}
	}
	return false
}

// panicArgRanges collects the argument ranges of panic calls in body:
// a failing run is allowed to allocate its message.
func panicArgRanges(body ast.Node) posRanges {
	var out posRanges
	ast.Inspect(body, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
			out = append(out, struct{ lo, hi token.Pos }{call.Lparen, call.Rparen})
		}
		return true
	})
	return out
}
