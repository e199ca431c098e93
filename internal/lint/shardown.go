package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/engine"
)

// Shardown enforces shard-state ownership in the sharded simulation
// engine. The conservative-lookahead contract (DESIGN.md, "Sharded
// engine") is that every piece of model state belongs to exactly one
// shard, mutated only by events on that shard's engine; the only legal
// cross-shard channel is Cluster.Send, which carries a declared minimum
// latency and merges deterministically. Reaching into the shard table
// (Cluster.Shard) is therefore a setup-time operation: wiring pods to
// engines before Run. Event-time code that calls Cluster.Shard —
// directly, or through any chain of helpers — is holding another
// shard's Engine without the merge protocol, which breaks byte-identity
// across shard counts in exactly the way no golden test localizes.
//
// Mechanically: every function value scheduled as an event callback
// (the fn of Engine.At/Schedule, Server.Submit's done, Cluster.Send's
// fn, Cluster.Sample's tick) is a root, and so is the Handle method of
// every Handler scheduled through the handler forms (Engine.AtHandler/
// ScheduleHandler, Server.SubmitHandler); the analyzer walks the
// module-wide call graph from each root and flags the scheduling site
// if any reachable function calls Cluster.Shard. Engines captured at
// setup and used by their own shard's events are untouched — it is the
// shard *table* lookup at event time that is flagged.
//
// Approximation: callbacks are resolved when they are literals, named
// functions, or locally bound function variables, and handlers when the
// argument's static type is concrete (or a HandlerFunc conversion of a
// resolvable function); a callback smuggled through a struct field, or
// a handler passed as the Handler interface, is not traced. Cross-shard writes
// that bypass Shard() entirely (storing a foreign engine in a struct at
// setup and scheduling on it at event time) are out of scope here; the
// goroutine and maporder analyzers fence the other halves of that
// contract.
var Shardown = &engine.Analyzer{
	Name: "shardown",
	Doc: "event-time code must not reach another shard's engine: Cluster.Shard is setup-only, " +
		"cross-shard work travels through Cluster.Send",
	Run: func(pass *engine.Pass) (any, error) {
		return collectShardownFacts(pass), nil
	},
	Finish: finishShardown,
}

// simMethod reports whether call is a method call on the named type
// from internal/sim (or a fixture package named sim), returning the
// method name.
func simMethod(info *types.Info, call *ast.CallExpr, typeName string) (string, bool) {
	named := namedRecv(info, call)
	if named == nil || named.Obj().Pkg() == nil {
		return "", false
	}
	p := named.Obj().Pkg().Path()
	if !strings.HasSuffix(p, "internal/sim") && p != "sim" {
		return "", false
	}
	if named.Obj().Name() != typeName {
		return "", false
	}
	sel := call.Fun.(*ast.SelectorExpr) // namedRecv guaranteed the shape
	return sel.Sel.Name, true
}

// callbackParamIndex maps scheduling APIs to the argument position of
// the event continuation they enqueue, and reports whether that
// argument is a Handler (rooted at its Handle method) rather than a
// function value.
func callbackParamIndex(info *types.Info, call *ast.CallExpr) (idx int, handler, ok bool) {
	if m, ok := simMethod(info, call, "Engine"); ok {
		switch m {
		case "At", "Schedule":
			return 1, false, true
		case "AtHandler", "ScheduleHandler":
			return 1, true, true
		}
	}
	if m, ok := simMethod(info, call, "Server"); ok {
		switch m {
		case "Submit":
			return 1, false, true
		case "SubmitHandler":
			return 1, true, true
		}
	}
	if m, ok := simMethod(info, call, "Cluster"); ok {
		switch m {
		case "Send":
			return 4, false, true
		case "Sample":
			return 1, false, true
		}
	}
	return 0, false, false
}

// shardownFacts is one unit's contribution: where Cluster.Shard is
// called, per call-graph node, and which nodes are scheduled as event
// callbacks.
type shardownFacts struct {
	// shardCalls maps a function node id to the positions of the
	// Cluster.Shard calls in its body.
	shardCalls map[engine.FuncID][]token.Pos
	// roots are (callback node id, scheduling call position) pairs.
	roots []shardownRoot
}

type shardownRoot struct {
	id  engine.FuncID
	pos token.Pos
}

func collectShardownFacts(pass *engine.Pass) *shardownFacts {
	u := pass.Unit
	facts := &shardownFacts{shardCalls: map[engine.FuncID][]token.Pos{}}

	for _, node := range engine.UnitFunctions(u) {
		if node.Body == nil {
			continue
		}
		n := node
		ast.Inspect(n.Body, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok {
				return false // literal bodies are their own nodes
			}
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if method, ok := simMethod(u.Info, call, "Cluster"); ok && method == "Shard" {
				facts.shardCalls[n.ID] = append(facts.shardCalls[n.ID], call.Pos())
			}
			if idx, handler, ok := callbackParamIndex(u.Info, call); ok && idx < len(call.Args) {
				resolve := callbackFuncIDs
				if handler {
					resolve = handlerFuncIDs
				}
				for _, id := range resolve(u, call.Args[idx]) {
					facts.roots = append(facts.roots, shardownRoot{id: id, pos: call.Pos()})
				}
			}
			return true
		})
	}
	return facts
}

// callbackFuncIDs resolves a callback argument to call-graph node ids:
// a literal, a named function, or a local variable bound to literals.
func callbackFuncIDs(u *engine.Unit, e ast.Expr) []engine.FuncID {
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		if id := u.LitID(e); id != "" {
			return []engine.FuncID{id}
		}
	case *ast.Ident:
		if fo, ok := u.Info.Uses[e].(*types.Func); ok {
			return []engine.FuncID{engine.IDOf(fo)}
		}
		if obj := u.Info.Uses[e]; obj != nil {
			return u.FuncsBoundTo(obj)
		}
	}
	return nil
}

// handlerFuncIDs resolves a Handler argument to the Handle method of
// its concrete type. A conversion such as sim.HandlerFunc(fn) resolves
// to fn, as a function callback does.
func handlerFuncIDs(u *engine.Unit, e ast.Expr) []engine.FuncID {
	e = ast.Unparen(e)
	if conv, ok := e.(*ast.CallExpr); ok && len(conv.Args) == 1 {
		if tv, ok := u.Info.Types[conv.Fun]; ok && tv.IsType() {
			return callbackFuncIDs(u, conv.Args[0])
		}
	}
	t := u.Info.TypeOf(e)
	if t == nil || types.IsInterface(t) {
		return nil
	}
	if sel := types.NewMethodSet(t).Lookup(nil, "Handle"); sel != nil {
		if fn, ok := sel.Obj().(*types.Func); ok {
			return []engine.FuncID{engine.IDOf(fn)}
		}
	}
	return nil
}

func finishShardown(results []engine.UnitResult) []engine.Diagnostic {
	units := make([]*engine.Unit, len(results))
	shardCalls := map[engine.FuncID][]token.Pos{}
	var roots []shardownRoot
	for i, r := range results {
		units[i] = r.Unit
		facts, _ := r.Result.(*shardownFacts)
		if facts == nil {
			continue
		}
		for id, ps := range facts.shardCalls {
			shardCalls[id] = append(shardCalls[id], ps...)
		}
		roots = append(roots, facts.roots...)
	}
	if len(roots) == 0 || len(shardCalls) == 0 {
		return nil
	}
	g := engine.BuildCallGraph(units)

	// reachesShard: reverse-propagate from every Shard-calling node.
	reaches := map[engine.FuncID]bool{}
	for id := range shardCalls {
		reaches[id] = true
	}
	for changed := true; changed; {
		changed = false
		for _, id := range g.SortedIDs() {
			if reaches[id] {
				continue
			}
			for _, e := range g.Nodes[id].Out {
				if reaches[e.To] {
					reaches[id] = true
					changed = true
					break
				}
			}
		}
	}

	// Deduplicate roots by (id, pos): the same callback may be
	// registered from several sites.
	type rootKey struct {
		id  engine.FuncID
		pos token.Pos
	}
	seen := map[rootKey]bool{}
	var diags []engine.Diagnostic
	sort.Slice(roots, func(i, j int) bool {
		if roots[i].pos != roots[j].pos {
			return roots[i].pos < roots[j].pos
		}
		return roots[i].id < roots[j].id
	})
	for _, r := range roots {
		k := rootKey{r.id, r.pos}
		if seen[k] || !reaches[r.id] {
			seen[k] = true
			continue
		}
		seen[k] = true
		path := g.PathTo(r.id, func(id engine.FuncID) bool {
			return len(shardCalls[id]) > 0
		})
		diags = append(diags, engine.Diagnostic{
			Pos: r.pos,
			Message: fmt.Sprintf(
				"event callback reaches Cluster.Shard (%s): the shard table is setup-only; cross-shard work must go through Cluster.Send",
				chainString(r.id, path)),
		})
	}
	return diags
}
