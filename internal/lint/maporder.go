package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/engine"
)

// Maporder flags `range` loops over maps whose bodies leak iteration
// order into observable state — the canonical silent-nondeterminism bug
// in this codebase. Two body shapes are order-sensitive:
//
//   - appending to a slice declared outside the loop, unless a
//     sort.*/slices.* call over that slice follows later in the same
//     block (the sorted-keys idiom stays legal);
//   - emitting as it goes: fmt printing, io.Writer writes, trace events
//     (obs.Tracer), or obs.Registry.GaugeFunc registration (later
//     registrations replace earlier ones, so registration order is
//     observable);
//   - handing work off as it goes: a channel send delivers values to the
//     consumer in map-iteration order, and a `go` statement spawns
//     workers in map-iteration order — both surfaced by the sharded
//     engine's merge paths, where every cross-shard handoff must be
//     keyed and sorted instead.
//
// Commutative updates (counter adds, CounterFunc registration, whose
// functions the snapshot sums, histogram observes, sums, map-to-map
// copies) are order-independent and deliberately not flagged.
var Maporder = &engine.Analyzer{
	Name: "maporder",
	Doc: "flag map-range loops that append to slices without a subsequent sort or that " +
		"emit output/trace/gauge state in iteration order",
	Run: func(pass *engine.Pass) (any, error) {
		for _, f := range pass.Files {
			engine.WalkStack(f, func(n ast.Node, stack []ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := pass.TypesInfo.TypeOf(rng.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				checkMapRange(pass, rng, stack)
				return true
			})
		}
		return nil, nil
	},
}

// appendTarget describes one `s = append(s, ...)` inside a map range.
type appendTarget struct {
	pos  ast.Node
	obj  types.Object // non-nil when the target is a plain identifier
	text string       // fallback textual form for selector targets
}

func checkMapRange(pass *engine.Pass, rng *ast.RangeStmt, stack []ast.Node) {
	var appends []appendTarget
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(s.Pos(),
				"channel send inside a map range delivers values in map-iteration order; iterate sorted keys instead")
			return true
		case *ast.GoStmt:
			pass.Reportf(s.Pos(),
				"go statement inside a map range spawns goroutines in map-iteration order; iterate sorted keys instead")
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}

		// Emission in iteration order.
		if name, ok := pkgFuncCall(pass.TypesInfo, call, "fmt"); ok {
			switch name {
			case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
				pass.Reportf(call.Pos(),
					"fmt.%s inside a map range emits output in map-iteration order; iterate sorted keys instead", name)
			}
			return true
		}
		if named := namedRecv(pass.TypesInfo, call); named != nil {
			sel := call.Fun.(*ast.SelectorExpr).Sel.Name
			switch {
			case isObsType(named, "Tracer"):
				pass.Reportf(call.Pos(),
					"obs.Tracer.%s inside a map range records trace events in map-iteration order; iterate sorted keys instead", sel)
				return true
			case isObsType(named, "Registry") && sel == "GaugeFunc":
				pass.Reportf(call.Pos(),
					"obs.Registry.GaugeFunc inside a map range registers callbacks in map-iteration order; iterate sorted keys instead")
				return true
			case isWriterMethod(named, sel):
				pass.Reportf(call.Pos(),
					"%s.%s inside a map range writes in map-iteration order; iterate sorted keys instead", named.Obj().Name(), sel)
				return true
			}
		}

		// Append accumulation.
		if id, ok := call.Fun.(*ast.Ident); ok {
			if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "append" && len(call.Args) > 0 {
				// Per-key accumulation like out[k] = append(out[k], ...)
				// is commutative across iterations: each key owns its
				// slice, so iteration order cannot leak.
				if keyedByRangeVar(pass, rng, call.Args[0]) {
					return true
				}
				tgt := appendTarget{pos: call, text: types.ExprString(call.Args[0])}
				if tid, ok := call.Args[0].(*ast.Ident); ok {
					tgt.obj = pass.TypesInfo.ObjectOf(tid)
				}
				// A slice declared inside the loop body is rebuilt each
				// iteration; order can only leak through some other
				// flagged channel, so skip it here.
				if tgt.obj == nil || tgt.obj.Pos() < rng.Pos() || tgt.obj.Pos() > rng.End() {
					appends = append(appends, tgt)
				}
			}
		}
		return true
	})

	if len(appends) == 0 {
		return
	}
	for _, a := range appends {
		if !sortedAfter(pass, rng, stack, a) {
			pass.Reportf(a.pos.Pos(),
				"append to %s inside a map range leaks map-iteration order; sort it afterwards or iterate sorted keys", a.text)
		}
	}
}

// keyedByRangeVar reports whether the append target is an index into a
// map whose index expression mentions the loop's key or value variable
// — the per-key grouping idiom, which is order-independent.
func keyedByRangeVar(pass *engine.Pass, rng *ast.RangeStmt, target ast.Expr) bool {
	ix, ok := target.(*ast.IndexExpr)
	if !ok {
		return false
	}
	if t := pass.TypesInfo.TypeOf(ix.X); t == nil {
		return false
	} else if _, isMap := t.Underlying().(*types.Map); !isMap {
		return false
	}
	var loopVars []types.Object
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
				loopVars = append(loopVars, obj)
			}
		}
	}
	found := false
	ast.Inspect(ix.Index, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			for _, lv := range loopVars {
				if pass.TypesInfo.ObjectOf(id) == lv {
					found = true
					return false
				}
			}
		}
		return !found
	})
	return found
}

// sortedAfter reports whether a sort.*/slices.* call whose arguments
// mention the append target appears after the range loop in the
// innermost enclosing block.
func sortedAfter(pass *engine.Pass, rng *ast.RangeStmt, stack []ast.Node, tgt appendTarget) bool {
	var block *ast.BlockStmt
	for i := len(stack) - 1; i >= 0; i-- {
		if b, ok := stack[i].(*ast.BlockStmt); ok {
			block = b
			break
		}
	}
	if block == nil {
		return false
	}
	after := false
	for _, stmt := range block.List {
		if stmt == ast.Stmt(rng) {
			after = true
			continue
		}
		if !after {
			continue
		}
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := pkgFuncCall(pass.TypesInfo, call, "sort")
			if !ok {
				name, ok = pkgFuncCall(pass.TypesInfo, call, "slices")
			}
			if !ok || name == "" {
				return true
			}
			for _, arg := range call.Args {
				if mentionsTarget(pass, arg, tgt) {
					found = true
					return false
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// mentionsTarget reports whether expr references the append target,
// by object identity for identifiers or textually for selectors.
func mentionsTarget(pass *engine.Pass, expr ast.Expr, tgt appendTarget) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && tgt.obj != nil && pass.TypesInfo.ObjectOf(id) == tgt.obj {
			found = true
			return false
		}
		if e, ok := n.(ast.Expr); ok && tgt.obj == nil && types.ExprString(e) == tgt.text {
			found = true
			return false
		}
		return true
	})
	return found
}

// ioWriter is interface{ Write([]byte) (int, error) }, built once so
// the analyzer needs no live reference to the io package.
var ioWriter = func() *types.Interface {
	byteSlice := types.NewSlice(types.Typ[types.Byte])
	errType := types.Universe.Lookup("error").Type()
	sig := types.NewSignatureType(nil, nil, nil,
		types.NewTuple(types.NewVar(0, nil, "p", byteSlice)),
		types.NewTuple(types.NewVar(0, nil, "n", types.Typ[types.Int]), types.NewVar(0, nil, "err", errType)),
		false)
	fn := types.NewFunc(0, nil, "Write", sig)
	iface := types.NewInterfaceType([]*types.Func{fn}, nil)
	iface.Complete()
	return iface
}()

// isWriterMethod reports whether calling method name on named streams
// bytes to an io.Writer-shaped sink.
func isWriterMethod(named *types.Named, name string) bool {
	switch name {
	case "Write", "WriteString", "WriteByte", "WriteRune":
	default:
		return false
	}
	t := types.Type(named)
	return types.Implements(t, ioWriter) || types.Implements(types.NewPointer(t), ioWriter)
}
