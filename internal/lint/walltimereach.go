package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/engine"
)

// wallFuncs are the package time functions that read or wait on the
// wall clock. Formatting, parsing, and constructing time.Time values
// from explicit components stay legal — only the ambient clock is
// banned, because any value derived from it varies across runs and
// breaks same-seed bit-identical output.
var wallFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// Walltimereach forbids the wall clock anywhere in the module, read
// directly or through helpers. Simulated components take time from the
// sim kernel; benchmark harnesses measure elapsed wall time through
// obs.Stopwatch.
//
// Direct uses: every mention of a wallFuncs function, called or taken
// as a function value, is flagged where it appears — in function
// bodies, package-level initializers, and _test.go files alike.
//
// Transitive reach: a helper that wraps the clock behind a local
// //lint:allow — or behind one level of indirection in another
// package — would hand wall time to every caller unseen. The analyzer
// computes the set of module functions that can transitively observe
// the wall clock and flags each of them, with the shortest call chain
// in the message. Propagation stops at the single sanctioned root:
// functions declared in a file carrying `//lint:allowfile
// walltime-reach` (obs.Stopwatch's file, whose direct uses the same
// directive waives), whose callers are, by policy, allowed to measure
// elapsed real time. A second check pins that policy down: the
// sanctioned root itself may only be called from cmd/ harness
// packages, test files, or its own package — simulation packages that
// time themselves with the Stopwatch would smuggle wall time into sim
// state.
//
// Approximation: the call graph resolves direct calls, static method
// calls, function values, and locally bound literals; dynamic dispatch
// through interfaces is not followed. A wall clock hidden behind an
// interface still needs a concrete implementation somewhere, and that
// implementation is flagged.
var Walltimereach = &engine.Analyzer{
	Name: "walltime-reach",
	Doc: "forbid time.Now/Since/Sleep and friends, called or as values, and flag functions that reach them through helpers; " +
		"obs.Stopwatch (//lint:allowfile walltime-reach) is the single sanctioned root, callable only from harnesses",
	Run: func(pass *engine.Pass) (any, error) {
		for _, f := range pass.Files {
			called := map[ast.Expr]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				var id *ast.Ident
				switch n := n.(type) {
				case *ast.CallExpr:
					called[ast.Unparen(n.Fun)] = true
					return true
				case *ast.SelectorExpr:
					id = n.Sel
				case *ast.Ident:
					id = n // a dot-imported time function
				default:
					return true
				}
				fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
				if !ok {
					return true
				}
				name, ok := wallID(engine.IDOf(fn))
				if !ok {
					return true
				}
				use := "call"
				if !called[n.(ast.Expr)] {
					use = "function value"
				}
				pass.Reportf(n.Pos(),
					"wall-clock %s time.%s: derive time from the simulation kernel, or use obs.Stopwatch in harnesses", use, name)
				return false
			})
		}
		return nil, nil
	},
	Finish: func(results []engine.UnitResult) []engine.Diagnostic {
		units := make([]*engine.Unit, len(results))
		for i, r := range results {
			units[i] = r.Unit
		}
		g := engine.BuildCallGraph(units)

		// Classify nodes: direct wall-clock users (an edge, call or
		// reference, to a wallFuncs function) and sanctioned roots
		// (declared in an allowfile walltime-reach file).
		direct := map[engine.FuncID]bool{}
		sanctioned := map[engine.FuncID]bool{}
		for _, id := range g.SortedIDs() {
			n := g.Nodes[id]
			if n.Unit.FileAllowed(n.Pos, "walltime-reach") {
				sanctioned[id] = true
			}
			for _, e := range n.Out {
				if _, ok := wallID(e.To); ok {
					direct[id] = true
				}
			}
		}

		// Propagate wall taint up the reversed graph; sanctioned roots
		// absorb taint instead of passing it on.
		tainted := map[engine.FuncID]bool{}
		for id := range direct {
			tainted[id] = true
		}
		for changed := true; changed; {
			changed = false
			for _, id := range g.SortedIDs() {
				if tainted[id] {
					continue
				}
				for _, e := range g.Nodes[id].Out {
					if tainted[e.To] && !sanctioned[e.To] {
						tainted[id] = true
						changed = true
						break
					}
				}
			}
		}

		var diags []engine.Diagnostic
		for _, id := range g.SortedIDs() {
			n := g.Nodes[id]
			switch {
			case tainted[id] && !direct[id] && !sanctioned[id]:
				// Indirect reach; Run reports direct uses where they appear.
				path := g.PathTo(id, func(t engine.FuncID) bool {
					return direct[t] && !sanctioned[t]
				})
				diags = append(diags, engine.Diagnostic{
					Pos: n.Pos,
					Message: fmt.Sprintf(
						"transitively reaches the wall clock via %s: route timing through obs.Stopwatch in a harness, or take time from the sim kernel",
						chainString(id, path)),
				})
			case sanctioned[id]:
				// Enforce the harness-only scope of the sanctioned root.
				for _, caller := range g.SortedIDs() {
					cn := g.Nodes[caller]
					if sanctioned[caller] || harnessContext(cn) {
						continue
					}
					for _, e := range cn.Out {
						if e.To == id {
							diags = append(diags, engine.Diagnostic{
								Pos: e.Pos,
								Message: fmt.Sprintf(
									"harness stopwatch %s used outside a cmd/ harness or test: simulation code must take time from the sim kernel",
									shortID(id)),
							})
						}
					}
				}
			}
		}
		return diags
	},
}

// wallID reports whether a call-graph id names one of the wallFuncs
// functions of package time (methods such as Time.After have ids of
// the form "time.(Time).After" and do not match), returning its name.
func wallID(id engine.FuncID) (string, bool) {
	name, ok := strings.CutPrefix(string(id), "time.")
	return name, ok && wallFuncs[name]
}

// harnessContext reports whether a function may legitimately consume
// the sanctioned wall-clock root: cmd/ packages, test files, and the
// root's own package (internal/obs exercises its Stopwatch).
func harnessContext(n *engine.FuncNode) bool {
	if n.TestOnly {
		return true
	}
	path := strings.TrimSuffix(n.Unit.ImportPath, "_test")
	for _, seg := range strings.Split(path, "/") {
		if seg == "cmd" {
			return true
		}
	}
	return strings.HasSuffix(path, "internal/obs")
}

// shortID trims the module path off a FuncID for messages.
func shortID(id engine.FuncID) string {
	s := string(id)
	if i := strings.LastIndex(s, "/"); i >= 0 {
		s = s[i+1:]
	}
	return s
}

// chainString renders "a -> b -> c" for a path of edges out of from.
func chainString(from engine.FuncID, path []engine.Edge) string {
	parts := []string{shortID(from)}
	for _, e := range path {
		parts = append(parts, shortID(e.To))
	}
	return strings.Join(parts, " -> ")
}
