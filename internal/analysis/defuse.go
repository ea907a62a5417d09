package analysis

// Intraprocedural def/use helpers shared by the dataflow rules:
// field-mention tracking over go/types objects (snapshot-coverage) and
// static expression types (hotpath-alloc, lock-order).

import (
	"go/ast"
	"go/types"
)

// structFields returns the field objects of a named struct type, in
// declaration order, or nil when the type is not a struct.
func structFields(named *types.Named) []*types.Var {
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	out := make([]*types.Var, 0, st.NumFields())
	for i := 0; i < st.NumFields(); i++ {
		out = append(out, st.Field(i))
	}
	return out
}

// fieldMentions scans the bodies of the given nodes for any mention of
// the given fields — a selector expression resolving to the field, or a
// composite-literal key naming it — and returns the mentioned subset.
// Mention (not store/load distinction) is deliberate: a capture closure
// reads fields into a state struct, a restore closure assigns them, and
// either way an untouched field is the bug the rule exists to catch.
func fieldMentions(nodes []*FuncNode, fields map[*types.Var]bool) map[*types.Var]bool {
	mentioned := map[*types.Var]bool{}
	for _, n := range nodes {
		info := n.Pkg.Info
		ast.Inspect(n.Body, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.SelectorExpr:
				if s, ok := info.Selections[x]; ok && s.Kind() == types.FieldVal {
					if v, ok := s.Obj().(*types.Var); ok && fields[v] {
						mentioned[v] = true
					}
				}
			case *ast.KeyValueExpr:
				if key, ok := x.Key.(*ast.Ident); ok {
					if v, ok := info.Uses[key].(*types.Var); ok && fields[v] {
						mentioned[v] = true
					}
				}
			}
			return true
		})
	}
	return mentioned
}

// samePackageClosure expands roots to every node of the same package
// reachable through the call graph — the "closure" the snapshot rule
// checks: CaptureState plus the private helpers it delegates to.
func samePackageClosure(g *CallGraph, roots []*FuncNode, pkgPath string) []*FuncNode {
	reach := g.Reachable(roots, func(n *FuncNode) bool { return n.Pkg.Path == pkgPath })
	var out []*FuncNode
	for _, n := range g.Nodes() { // deterministic order
		if reach[n] {
			out = append(out, n)
		}
	}
	return out
}

// typeOf returns the static type of e, or nil.
func (p *Package) typeOf(e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.Info.Uses[id]; obj != nil {
			return obj.Type()
		}
		if obj := p.Info.Defs[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}
