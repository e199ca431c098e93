package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/lint/engine"
)

// metricNameRE is the naming grammar: at least two dot-separated
// lowercase segments, "pkg.noun[.verb]" style, e.g. "plfs.index.merges"
// or "sim.events_scheduled".
var metricNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$`)

// traceCatRE is the grammar for trace-event categories: one lowercase
// segment.
var traceCatRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// metricUse is one literal metric-name registration site.
type metricUse struct {
	Name string
	Kind string // a registryKinds key, e.g. "CounterFunc" or "TimeSeries"
	Pkg  string
	Pos  token.Pos
}

// registryKinds are the obs.Registry constructors whose first argument
// is a literal metric name subject to the grammar. OpTimerSet's base
// name expands into derived .latency_s/.stage.*/.bottleneck.* names at
// runtime; checking the literal base keeps the whole family legal.
var registryKinds = map[string]bool{
	"Counter": true, "CounterFunc": true, "GaugeFunc": true, "Histogram": true,
	"TimeSeries": true, "OpTimerSet": true,
}

var tracerNameMethods = map[string]bool{
	"Span": true, "Instant": true, "InstantArgs": true,
}

// Metricname enforces the metric/trace naming grammar at every literal
// name passed to the obs Registry and Tracer, and — across the whole
// repository, via the Finish hook — flags the same name registered by
// two different packages, the same name registered as two different
// instrument kinds (a Counter and a CounterFunc with one name would
// report one count twice; the registry panics on it at run time), and
// near-miss typos (same-kind names
// at Levenshtein distance 1). Names built at runtime by concatenation
// are skipped; _test.go files are exempt because their names are
// fixtures, not emitted metrics.
var Metricname = &engine.Analyzer{
	Name: "metricname",
	Doc: "enforce the pkg.noun[.verb] metric naming grammar and flag cross-package " +
		"duplicates and near-miss typos in obs Registry/Tracer names",
	Run: func(pass *engine.Pass) (any, error) {
		var uses []metricUse
		for _, f := range pass.Files {
			if isTestFile(pass, f) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				named := namedRecv(pass.TypesInfo, call)
				if named == nil {
					return true
				}
				sel := call.Fun.(*ast.SelectorExpr).Sel.Name
				switch {
				case isObsType(named, "Registry") && registryKinds[sel]:
					name, ok := stringLit(call.Args[0])
					if !ok {
						return true
					}
					if !metricNameRE.MatchString(name) {
						pass.Reportf(call.Args[0].Pos(),
							"metric name %q does not match the pkg.noun[.verb] grammar (lowercase dot-separated segments, at least two)", name)
						return true
					}
					uses = append(uses, metricUse{Name: name, Kind: sel, Pkg: pass.Pkg.Path(), Pos: call.Args[0].Pos()})
				case isObsType(named, "Tracer") && tracerNameMethods[sel] && len(call.Args) >= 2:
					if cat, ok := stringLit(call.Args[0]); ok && !traceCatRE.MatchString(cat) {
						pass.Reportf(call.Args[0].Pos(),
							"trace category %q does not match the single lowercase segment grammar", cat)
					}
					if name, ok := stringLit(call.Args[1]); ok && strings.TrimSpace(name) != name {
						pass.Reportf(call.Args[1].Pos(),
							"trace event name %q has leading or trailing whitespace", name)
					}
				}
				return true
			})
		}
		return uses, nil
	},
	Finish: func(results []engine.UnitResult) []engine.Diagnostic {
		var all []metricUse
		for _, r := range results {
			if uses, ok := r.Result.([]metricUse); ok {
				all = append(all, uses...)
			}
		}
		// Deterministic processing order regardless of load order.
		sort.Slice(all, func(i, j int) bool {
			if all[i].Name != all[j].Name {
				return all[i].Name < all[j].Name
			}
			if all[i].Pkg != all[j].Pkg {
				return all[i].Pkg < all[j].Pkg
			}
			return all[i].Pos < all[j].Pos
		})
		var diags []engine.Diagnostic
		for i, u := range all {
			for j := 0; j < i; j++ {
				prev := all[j]
				switch {
				case prev.Name == u.Name && prev.Kind != u.Kind:
					diags = append(diags, engine.Diagnostic{Pos: u.Pos, Message: fmt.Sprintf(
						"metric %q registered as both %s (%s) and %s (%s); one name must map to one instrument kind",
						u.Name, prev.Kind, prev.Pkg, u.Kind, u.Pkg)})
				case prev.Name == u.Name && prev.Pkg != u.Pkg:
					diags = append(diags, engine.Diagnostic{Pos: u.Pos, Message: fmt.Sprintf(
						"metric %q is already registered by package %s; each package must own its metric namespace",
						u.Name, prev.Pkg)})
				case prev.Name != u.Name && prev.Kind == u.Kind && levenshtein(prev.Name, u.Name) == 1:
					diags = append(diags, engine.Diagnostic{Pos: u.Pos, Message: fmt.Sprintf(
						"metric name %q is one edit away from %s %q (%s): likely typo",
						u.Name, strings.ToLower(prev.Kind), prev.Name, prev.Pkg)})
				}
			}
		}
		return diags
	},
}

// stringLit unwraps a string literal expression.
func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}

// levenshtein is the classic edit distance, small inputs only.
func levenshtein(a, b string) int {
	if a == b {
		return 0
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
