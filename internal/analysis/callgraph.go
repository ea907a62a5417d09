package analysis

// A CHA-style call graph over the loaded module. Nodes are declared
// functions, methods and function literals with bodies in module
// packages; edges are direct calls plus, for calls through an
// interface, every module type implementing that interface (class
// hierarchy analysis — no pointer analysis, so the graph
// overapproximates dispatch but never misses a module callee).
//
// Soundness caveats, shared by every rule built on top:
//
//   - Calls through plain function values (not literals, not method
//     expressions) are unresolved: func-typed fields and parameters
//     produce no edges.
//   - A function literal is treated as called wherever it is created;
//     storing a closure for later does not launder its body out of the
//     enclosing context.
//   - Bodyless declarations (assembly, external linkname) get no node.
//
// The graph is built once per Module and shared by all rules.

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// FuncNode is one function in the module call graph.
type FuncNode struct {
	// Obj is the declared function or method object; nil for literals.
	Obj *types.Func
	// Lit is the function literal; nil for declared functions.
	Lit *ast.FuncLit
	// Pkg is the declaring package.
	Pkg *Package
	// Name is the package-relative display name: "Cache.Access" for a
	// method, "RestoreCache" for a function, "Run$1" for the first
	// literal created inside Run.
	Name string
	// Body is the function body.
	Body *ast.BlockStmt
	// Calls are the resolved callees: direct and literal calls in
	// source order, then CHA targets of interface calls (sorted).
	Calls []*FuncNode

	callSet map[*FuncNode]bool
}

// String renders "importpath.Name".
func (n *FuncNode) String() string {
	return n.Pkg.Path + "." + n.Name
}

func (n *FuncNode) addCall(callee *FuncNode) {
	if callee == nil || n.callSet[callee] {
		return
	}
	if n.callSet == nil {
		n.callSet = map[*FuncNode]bool{}
	}
	n.callSet[callee] = true
	n.Calls = append(n.Calls, callee)
}

// CallGraph indexes the module's FuncNodes.
type CallGraph struct {
	byObj map[*types.Func]*FuncNode
	byLit map[*ast.FuncLit]*FuncNode
	// nodes is every node in deterministic (package, file, source
	// position) order.
	nodes []*FuncNode
	// concrete are the module's named non-interface types, for CHA
	// dispatch resolution, sorted by (package path, name).
	concrete []*types.TypeName
}

// Nodes returns every node in deterministic order.
func (g *CallGraph) Nodes() []*FuncNode { return g.nodes }

// NodeFor returns the node of a declared function or method, or nil.
func (g *CallGraph) NodeFor(obj *types.Func) *FuncNode {
	if obj == nil {
		return nil
	}
	return g.byObj[obj.Origin()]
}

// Lookup finds the node named name ("Cache.Access" or "RestoreCache")
// in a package matching the import-path suffix, or nil.
func (g *CallGraph) Lookup(pkgSuffix, name string) *FuncNode {
	for _, n := range g.nodes {
		if n.Name == name && matchSuffix(n.Pkg.Path, pkgSuffix) {
			return n
		}
	}
	return nil
}

// Reachable returns the closure of roots under Calls edges, including
// the roots themselves. A nil filter admits every edge; otherwise only
// callees for which filter returns true are entered.
func (g *CallGraph) Reachable(roots []*FuncNode, filter func(*FuncNode) bool) map[*FuncNode]bool {
	seen := map[*FuncNode]bool{}
	queue := append([]*FuncNode(nil), roots...)
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n == nil || seen[n] {
			continue
		}
		seen[n] = true
		for _, c := range n.Calls {
			if !seen[c] && (filter == nil || filter(c)) {
				queue = append(queue, c)
			}
		}
	}
	return seen
}

// Dump renders the graph deterministically, one node per line with its
// sorted callees — the golden-file format of the call-graph tests.
// trimPrefix (usually the module path plus "/") is stripped from every
// import path for machine-independent output.
func (g *CallGraph) Dump(trimPrefix string) string {
	short := func(n *FuncNode) string {
		return strings.TrimPrefix(n.Pkg.Path, trimPrefix) + "." + n.Name
	}
	var b strings.Builder
	for _, n := range g.nodes {
		callees := make([]string, 0, len(n.Calls))
		for _, c := range n.Calls {
			callees = append(callees, short(c))
		}
		sort.Strings(callees)
		fmt.Fprintf(&b, "%s -> [%s]\n", short(n), strings.Join(callees, ", "))
	}
	return b.String()
}

// BuildCallGraph constructs the graph over the given packages.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		byObj: map[*types.Func]*FuncNode{},
		byLit: map[*ast.FuncLit]*FuncNode{},
	}

	// Pass 1: create a node per declared function with a body, then a
	// node per literal inside it (named parent$1, parent$2, ... in
	// source order, nesting included).
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := p.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				n := &FuncNode{Obj: obj, Pkg: p, Name: funcDisplayName(obj), Body: fd.Body}
				g.byObj[obj.Origin()] = n
				g.nodes = append(g.nodes, n)
				g.addLiterals(p, n)
			}
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			g.concrete = append(g.concrete, tn)
		}
	}
	sort.Slice(g.concrete, func(i, j int) bool {
		a, b := g.concrete[i], g.concrete[j]
		if a.Pkg().Path() != b.Pkg().Path() {
			return a.Pkg().Path() < b.Pkg().Path()
		}
		return a.Name() < b.Name()
	})

	// Pass 2: edges.
	for _, n := range g.nodes {
		if n.Lit == nil {
			g.buildEdges(n)
		}
	}
	return g
}

// addLiterals creates nodes for every function literal inside parent's
// body, in source order, recursing into nested literals.
func (g *CallGraph) addLiterals(p *Package, parent *FuncNode) {
	count := 0
	var walk func(node ast.Node, encl *FuncNode)
	walk = func(node ast.Node, encl *FuncNode) {
		ast.Inspect(node, func(x ast.Node) bool {
			lit, ok := x.(*ast.FuncLit)
			if !ok || x == node {
				return true
			}
			count++
			ln := &FuncNode{Lit: lit, Pkg: p, Name: fmt.Sprintf("%s$%d", parent.Name, count), Body: lit.Body}
			g.byLit[lit] = ln
			g.nodes = append(g.nodes, ln)
			walk(lit, ln)
			return false // nested literals handled by the recursive walk
		})
	}
	walk(parent.Body, parent)
}

// buildEdges resolves the calls in n's body (skipping nested literal
// bodies, which own their calls) and recurses into its literals.
func (g *CallGraph) buildEdges(n *FuncNode) {
	p := n.Pkg
	ast.Inspect(n.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			// The literal's body belongs to its own node; creating it
			// counts as a (possible) call from here.
			ln := g.byLit[x]
			n.addCall(ln)
			if ln != nil {
				g.buildEdges(ln)
			}
			return false
		case *ast.CallExpr:
			for _, t := range g.calleeNodes(p, x) {
				n.addCall(t)
			}
			return true
		}
		return true
	})
}

// calleeNodes resolves one call expression to its possible module
// callees: the direct target, a directly-invoked literal, or every CHA
// implementation of an interface method.
func (g *CallGraph) calleeNodes(p *Package, call *ast.CallExpr) []*FuncNode {
	fun := ast.Unparen(call.Fun)
	if lit, ok := fun.(*ast.FuncLit); ok {
		if ln := g.byLit[lit]; ln != nil {
			return []*FuncNode{ln}
		}
		return nil
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if s, ok := p.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			if types.IsInterface(s.Recv()) {
				return g.implementations(s.Recv(), s.Obj().Name())
			}
		}
	}
	obj, _ := p.calleeObject(call).(*types.Func)
	if obj == nil {
		return nil
	}
	if node := g.byObj[obj.Origin()]; node != nil {
		return []*FuncNode{node}
	}
	return nil
}

// implementations returns the module methods satisfying an interface
// method call (CHA), sorted by node order in g.concrete.
func (g *CallGraph) implementations(iface types.Type, method string) []*FuncNode {
	i, ok := iface.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*FuncNode
	for _, tn := range g.concrete {
		t := tn.Type()
		pt := types.NewPointer(t)
		if !types.Implements(t, i) && !types.Implements(pt, i) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(pt, true, tn.Pkg(), method)
		fn, _ := obj.(*types.Func)
		if fn == nil {
			continue
		}
		if node := g.byObj[fn.Origin()]; node != nil {
			out = append(out, node)
		}
	}
	return out
}

// funcDisplayName renders a function object as "Recv.Name" for methods
// or "Name" for plain functions — the form Config fields like
// HotPathRoots and HotPathStops use.
func funcDisplayName(obj *types.Func) string {
	sig, _ := obj.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + obj.Name()
		}
	}
	return obj.Name()
}

// matchFuncName reports whether a function object matches any
// configured "Recv.Name" / "Name" entry.
func matchFuncName(obj *types.Func, names []string) bool {
	if obj == nil {
		return false
	}
	d := funcDisplayName(obj)
	for _, n := range names {
		if n == d {
			return true
		}
	}
	return false
}
