package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"regexp"
)

// telemetryNamesRule pins metric names to grep-able literals. Every
// name handed to Registry.Counter/Gauge/Histogram or to a Register*Func
// must either be a constant matching the project namespaces
// (molcache_*, runner_*, resize_*, obs_*, with an optional {label}
// block) or a concatenation whose leftmost operand is such a
// literal — the one sanctioned dynamic form, used to attach
// per-instance label blocks. Names assembled with fmt.Sprintf are
// banned outright: they defeat `grep -r metric_name` and invite
// per-iteration formatting on hot paths.
type telemetryNamesRule struct{}

func init() { Register(telemetryNamesRule{}) }

func (telemetryNamesRule) Name() string { return "telemetry-names" }

func (telemetryNamesRule) Doc() string {
	return "metric names must be literals (or literal-prefixed label concatenations) in the molcache_/runner_/resize_/obs_ namespaces, never fmt.Sprintf"
}

// registryMethods are the Registry entry points whose first argument is
// a metric name.
var registryMethods = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true,
	"RegisterGaugeFunc": true, "RegisterCounterFunc": true, "RegisterHistogramFunc": true,
}

// fullNameRE matches a complete metric name: namespace prefix,
// snake body, optional label block.
var fullNameRE = regexp.MustCompile(`^(molcache|runner|resize|obs)_[a-z0-9_]+(\{.+\})?$`)

// prefixRE matches the literal head of a label-concatenation
// ("molcache_region_miss_rate" + label).
var prefixRE = regexp.MustCompile(`^(molcache|runner|resize|obs)_[a-z0-9_]+(\{[^}]*)?$`)

func (r telemetryNamesRule) Check(cfg Config, pkg *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || !registryMethods[sel.Sel.Name] {
				return true
			}
			recv := pkg.receiverType(call)
			if recv == nil || !typeDeclaredIn(recv, "internal/telemetry") {
				return true
			}
			if d, bad := r.checkName(pkg, call.Args[0]); bad {
				out = append(out, diag(pkg, call.Args[0], r.Name(), "%s", d))
			}
			return true
		})
	}
	return out
}

// checkName validates one name argument. It returns the message and
// whether the argument violates the rule.
func (r telemetryNamesRule) checkName(pkg *Package, arg ast.Expr) (string, bool) {
	if containsSprintf(pkg, arg) {
		return "metric name built with fmt.Sprintf; use a literal name with a {label} block", true
	}
	// Fully constant (literals, consts, literal concatenations): the
	// whole resolved value must match the namespace pattern.
	if tv, ok := pkg.Info.Types[arg]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		name := constant.StringVal(tv.Value)
		if !fullNameRE.MatchString(name) {
			return "metric name " + quote(name) + " outside the molcache_/runner_/resize_/obs_ namespaces", true
		}
		return "", false
	}
	// Dynamic: the only sanctioned shape is literal-head concatenation,
	// e.g. "molcache_region_miss_rate" + label.
	if head, ok := leftmostConstant(pkg, arg); ok {
		if !prefixRE.MatchString(head) {
			return "dynamic metric name's literal prefix " + quote(head) + " outside the project namespaces", true
		}
		return "", false
	}
	return "metric name is not a string literal (or literal-prefixed concatenation)", true
}

// leftmostConstant resolves the leftmost operand of a + chain to its
// constant string value.
func leftmostConstant(pkg *Package, e ast.Expr) (string, bool) {
	for {
		bin, ok := ast.Unparen(e).(*ast.BinaryExpr)
		if !ok || bin.Op != token.ADD {
			break
		}
		e = bin.X
	}
	if tv, ok := pkg.Info.Types[ast.Unparen(e)]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		return constant.StringVal(tv.Value), true
	}
	return "", false
}

// containsSprintf reports whether the expression tree calls
// fmt.Sprintf (or Sprint/Sprintln).
func containsSprintf(pkg *Package, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if obj := pkg.calleeObject(call); obj != nil && obj.Pkg() != nil &&
			obj.Pkg().Path() == "fmt" &&
			(obj.Name() == "Sprintf" || obj.Name() == "Sprint" || obj.Name() == "Sprintln") {
			found = true
			return false
		}
		return true
	})
	return found
}

// quote wraps a name for a message without importing strconv at every
// call site.
func quote(s string) string { return "\"" + s + "\"" }
