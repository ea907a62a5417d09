package analysis

// lock-order: a global mutex-acquisition graph over the concurrent
// packages (obs, telemetry, server). Lock identity is the declared
// types.Var — the struct field or package-level variable holding the
// sync.Mutex/RWMutex — so every instance of a type shares one node and
// the order is a static, whole-program property. Within each function
// the walker tracks the held set in source order (defer Unlock holds to
// function end); acquisitions of other locks while one is held become
// edges, including through calls: a fixpoint propagates each callee's
// transitive acquisitions to every call site reached with locks held.
// A cycle in the edge graph — including a self-loop, since sync.Mutex
// is not reentrant — is a finding at the first edge that closes it.
//
// Soundness caveats: held-set tracking is linear (an Unlock inside one
// branch clears the lock for the code after the branch join), RLock and
// Lock share a node (reader/reader cycles report like writer cycles —
// still deadlock-prone the moment a writer queues), and calls through
// interfaces or function values propagate nothing.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

func init() { Register(lockRule{}) }

type lockRule struct{}

func (lockRule) Name() string { return "lock-order" }

func (lockRule) Doc() string {
	return "mutex acquisition order is globally consistent across obs/telemetry/server (no cycles, no re-entry)"
}

// Check is a no-op: the rule runs once per module via CheckModule.
func (lockRule) Check(cfg Config, pkg *Package) []Diagnostic { return nil }

// lockEdge is one held->acquired pair with its first witness site.
type lockEdge struct {
	from, to *types.Var
	pkg      *Package
	pos      token.Pos
}

type lockInfo struct {
	g     *CallGraph
	cfg   Config
	names map[*types.Var]string
	// acquires is the per-function transitive acquisition set.
	acquires map[*FuncNode]map[*types.Var]bool
	// calls records (caller, callee, held-at-site) triples.
	calls []lockCall
	edges map[[2]*types.Var]*lockEdge
	// direct acquisitions per function with their sites, for edge
	// positions during propagation.
	sites map[*FuncNode][]lockSite
}

type lockSite struct {
	lock *types.Var
	pos  token.Pos
}

type lockCall struct {
	caller *FuncNode
	callee *FuncNode
	held   []*types.Var
	pkg    *Package
	pos    token.Pos
}

func (lockRule) CheckModule(cfg Config, mod *Module) []Diagnostic {
	li := &lockInfo{
		g:        mod.CallGraph(),
		cfg:      cfg,
		names:    map[*types.Var]string{},
		acquires: map[*FuncNode]map[*types.Var]bool{},
		edges:    map[[2]*types.Var]*lockEdge{},
		sites:    map[*FuncNode][]lockSite{},
	}
	var scoped []*FuncNode
	for _, n := range li.g.Nodes() {
		if matchAny(n.Pkg.Path, cfg.LockPackages) {
			scoped = append(scoped, n)
			li.scanFunc(n)
		}
	}
	li.propagate(scoped)
	return li.findings()
}

// scanFunc walks one body in source order, tracking the held set.
func (li *lockInfo) scanFunc(n *FuncNode) {
	li.acquires[n] = map[*types.Var]bool{}
	var held []*types.Var
	ast.Inspect(n.Body, func(x ast.Node) bool {
		if lit, ok := x.(*ast.FuncLit); ok && lit != n.Lit {
			return false // literal bodies are their own nodes
		}
		if def, ok := x.(*ast.DeferStmt); ok {
			// defer mu.Unlock() keeps mu held to function end: record
			// nothing. defer mu.Lock() (pathological) still counts via
			// the CallExpr visit below.
			if lock, _, isUnlock := li.lockCallTarget(n.Pkg, def.Call); isUnlock && lock != nil {
				return false
			}
			return true
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if lock, isLock, isUnlock := li.lockCallTarget(n.Pkg, call); lock != nil {
			if isLock {
				for _, h := range held {
					li.addEdge(h, lock, n.Pkg, call.Pos())
				}
				held = append(held, lock)
				li.acquires[n][lock] = true
				li.sites[n] = append(li.sites[n], lockSite{lock, call.Pos()})
			} else if isUnlock {
				for i := len(held) - 1; i >= 0; i-- {
					if held[i] == lock {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
			}
			return true
		}
		if obj, _ := n.Pkg.calleeObject(call).(*types.Func); obj != nil {
			if callee := li.g.NodeFor(obj); callee != nil && matchAny(callee.Pkg.Path, li.cfg.LockPackages) {
				li.calls = append(li.calls, lockCall{
					caller: n, callee: callee,
					held: append([]*types.Var(nil), held...),
					pkg:  n.Pkg, pos: call.Pos(),
				})
			}
		}
		return true
	})
}

// lockCallTarget matches mu.Lock/RLock/Unlock/RUnlock and resolves the
// mutex's declared variable.
func (li *lockInfo) lockCallTarget(p *Package, call *ast.CallExpr) (lock *types.Var, isLock, isUnlock bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		isLock = true
	case "Unlock", "RUnlock":
		isUnlock = true
	default:
		return nil, false, false
	}
	recv := ast.Unparen(sel.X)
	var v *types.Var
	name := ""
	switch r := recv.(type) {
	case *ast.Ident:
		v, _ = lookupIdent(p, r).(*types.Var)
		name = r.Name
	case *ast.SelectorExpr:
		if s, ok := p.Info.Selections[r]; ok && s.Kind() == types.FieldVal {
			v, _ = s.Obj().(*types.Var)
			if owner := namedRecvName(p, r.X); owner != "" {
				name = owner + "." + r.Sel.Name
			} else {
				name = r.Sel.Name
			}
		}
	}
	if v == nil || !isMutexVarType(v.Type()) {
		return nil, false, false
	}
	if _, seen := li.names[v]; !seen {
		li.names[v] = name
	}
	return v, isLock, isUnlock
}

// namedRecvName renders the owner type of a mutex field (r in r.mu).
func namedRecvName(p *Package, e ast.Expr) string {
	t := p.typeOf(e)
	if t == nil {
		return ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// isMutexVarType reports whether t is sync.Mutex / sync.RWMutex or a
// pointer to one.
func isMutexVarType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return isMutexType(t)
}

func (li *lockInfo) addEdge(from, to *types.Var, p *Package, pos token.Pos) {
	key := [2]*types.Var{from, to}
	if e, ok := li.edges[key]; ok {
		if pos < e.pos {
			e.pkg, e.pos = p, pos
		}
		return
	}
	li.edges[key] = &lockEdge{from: from, to: to, pkg: p, pos: pos}
}

// propagate runs the transitive-acquisition fixpoint and materializes
// held->callee-acquisition edges.
func (li *lockInfo) propagate(scoped []*FuncNode) {
	// Fixpoint: acquires[f] ∪= acquires[callee] for every scoped call.
	for changed := true; changed; {
		changed = false
		for _, c := range li.calls {
			dst := li.acquires[c.caller]
			for lock := range li.acquires[c.callee] {
				if !dst[lock] {
					dst[lock] = true
					changed = true
				}
			}
		}
	}
	for _, c := range li.calls {
		if len(c.held) == 0 {
			continue
		}
		acq := make([]*types.Var, 0, len(li.acquires[c.callee]))
		for lock := range li.acquires[c.callee] {
			acq = append(acq, lock)
		}
		sort.Slice(acq, func(i, j int) bool { return li.names[acq[i]] < li.names[acq[j]] })
		for _, h := range c.held {
			for _, a := range acq {
				li.addEdge(h, a, c.pkg, c.pos)
			}
		}
	}
}

// findings detects cycles (self-loops and multi-lock SCCs) in the edge
// graph and reports them deterministically.
func (li *lockInfo) findings() []Diagnostic {
	adj := map[*types.Var][]*types.Var{}
	var keys [][2]*types.Var
	for k := range li.edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := li.edges[keys[i]], li.edges[keys[j]]
		if li.names[a.from] != li.names[b.from] {
			return li.names[a.from] < li.names[b.from]
		}
		return li.names[a.to] < li.names[b.to]
	})
	var out []Diagnostic
	for _, k := range keys {
		e := li.edges[k]
		if e.from == e.to {
			out = append(out, diagAt(e.pkg, e.pos, "lock-order",
				"%s acquired while already held; sync mutexes are not reentrant", li.names[e.from]))
			continue
		}
		adj[e.from] = append(adj[e.from], e.to)
	}
	// A two-coloring DFS per edge: an edge from->to is part of a cycle
	// iff from is reachable from to. The graphs here are tiny, so the
	// quadratic check buys deterministic, per-edge findings.
	for _, k := range keys {
		e := li.edges[k]
		if e.from == e.to {
			continue
		}
		if lockReach(adj, e.to, e.from) {
			out = append(out, diagAt(e.pkg, e.pos, "lock-order",
				"lock order cycle: %s is acquired while %s is held, but elsewhere %s is acquired while %s is held",
				li.names[e.to], li.names[e.from], li.names[e.from], li.names[e.to]))
		}
	}
	return out
}

// lockReach reports whether target is reachable from start in adj.
func lockReach(adj map[*types.Var][]*types.Var, start, target *types.Var) bool {
	seen := map[*types.Var]bool{}
	stack := []*types.Var{start}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v == target {
			return true
		}
		if seen[v] {
			continue
		}
		seen[v] = true
		stack = append(stack, adj[v]...)
	}
	return false
}
