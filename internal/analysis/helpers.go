package analysis

import (
	"go/ast"
	"go/types"
)

// calleeObject resolves the object a call expression invokes (function,
// method or builtin), or nil for indirect calls through function values
// and for type conversions.
func (p *Package) calleeObject(call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return p.Info.Uses[fn]
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[fn]; ok {
			return sel.Obj()
		}
		// Package-qualified call: pkg.Fn.
		return p.Info.Uses[fn.Sel]
	}
	return nil
}

// callsPackageFunc reports whether call invokes pkgPath.name (a
// package-level function, e.g. time.Now).
func (p *Package) callsPackageFunc(call *ast.CallExpr, pkgPath, name string) bool {
	obj := p.calleeObject(call)
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// receiverType returns the static type of a method call's receiver
// expression, or nil when call is not a method call.
func (p *Package) receiverType(call *ast.CallExpr) types.Type {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s, ok := p.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
		return s.Recv()
	}
	return nil
}

// typeDeclaredIn reports whether t (or its pointee) is a named type
// declared in a package whose import path matches suffix.
func typeDeclaredIn(t types.Type, suffix string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && matchSuffix(pkg.Path(), suffix)
}

// enclosingFunc finds the innermost function declaration containing
// node in any of the package's files (nil when node is at file scope or
// inside a function literal only).
func (p *Package) enclosingFunc(node ast.Node) *ast.FuncDecl {
	for _, f := range p.Files {
		if node.Pos() < f.Pos() || node.Pos() > f.End() {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Pos() <= node.Pos() && node.Pos() <= fd.End() {
				return fd
			}
		}
	}
	return nil
}

// declaredWithin reports whether ident's declaration lies inside node's
// source range.
func (p *Package) declaredWithin(ident *ast.Ident, node ast.Node) bool {
	obj := p.Info.Uses[ident]
	if obj == nil {
		obj = p.Info.Defs[ident]
	}
	if obj == nil {
		return false
	}
	return node.Pos() <= obj.Pos() && obj.Pos() <= node.End()
}

// rootIdent peels selectors and indexes down to the base identifier of
// an lvalue-ish expression (a.b[i].c -> a), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isMapType reports whether t's underlying type is a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// lookupIdent resolves an identifier's object (use or def).
func lookupIdent(p *Package, id *ast.Ident) types.Object {
	if obj := p.Info.Uses[id]; obj != nil {
		return obj
	}
	return p.Info.Defs[id]
}

// packageLevel reports whether v is a package-level variable.
func packageLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}
