package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/engine"
)

// Errflow is the CFG-based dropped-error check. An error produced by a
// module-internal API — WriteOp/ReadOp done callbacks, Submit chains,
// the drain and rebuild paths — must be consumed on every control-flow
// path: returned, checked, passed on, or recorded. A silently dropped
// error in a rebuild chain corrupts pfs.loss.* accounting without
// failing any test until a golden snapshot moves, so dropping one is a
// lint error, not a review nit. Four shapes are flagged:
//
//   - a call statement that discards an error-returning result outright;
//   - an error result assigned to the blank identifier;
//   - an error variable with a control-flow path from its definition to
//     a redefinition or to function exit on which it is never read
//     (reaching-definitions over the engine's CFG);
//   - an error-typed parameter of a callback literal handed to a
//     module-internal call (the WriteOp/ReadOp done shape) that some
//     path ignores.
//
// Only module-internal callees are in scope: stdlib error discipline is
// vet/staticcheck territory, and the invariant this analyzer guards is
// the simulator's accounting. Test files are exempt for the same
// reason — a test that drops a Close error fails its own assertions,
// not the simulation's books. Values that escape into closures,
// deferred calls, or through & are left to those closures — the path
// analysis declines rather than guesses.
var Errflow = &engine.Analyzer{
	Name: "errflow",
	Doc: "errors from module APIs must be consumed on every control-flow path: " +
		"no discarded results, blank assigns, or paths that drop an error before reading it",
	Run: func(pass *engine.Pass) (any, error) {
		for _, f := range pass.Files {
			if isTestFile(pass, f) {
				continue
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkErrflowBody(pass, fd.Body, namedResults(fd.Type))
				// Function literals get their own pass each, so their
				// local error handling is judged on their own CFG.
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if lit, ok := n.(*ast.FuncLit); ok {
						checkErrflowBody(pass, lit.Body, namedResults(lit.Type))
					}
					return true
				})
			}
		}
		return nil, nil
	},
}

// namedResults reports whether ft declares named results (a naked
// return then reads them all).
func namedResults(ft *ast.FuncType) bool {
	if ft == nil || ft.Results == nil {
		return false
	}
	for _, f := range ft.Results.List {
		if len(f.Names) > 0 {
			return true
		}
	}
	return false
}

// moduleCallee resolves the static callee of call when it is a
// module-internal function or method (including interface methods on
// module types), returning it and a display name.
func moduleCallee(pass *engine.Pass, call *ast.CallExpr) (*types.Func, string) {
	var fn *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = pass.TypesInfo.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[fun]; ok {
			fn, _ = sel.Obj().(*types.Func)
		} else {
			fn, _ = pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		}
	}
	if fn == nil || fn.Pkg() == nil {
		return nil, ""
	}
	path := fn.Pkg().Path()
	unitPath := strings.TrimSuffix(pass.Unit.ImportPath, "_test")
	mod := pass.Unit.ModulePath
	if path != unitPath && path != mod && !strings.HasPrefix(path, mod+"/") {
		return nil, ""
	}
	return fn, fn.Name()
}

// errResultIndexes returns the positions of error-typed results in the
// callee's signature (nil when there are none).
func errResultIndexes(fn *types.Func) []int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var idx []int
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if implementsError(res.At(i).Type()) {
			idx = append(idx, i)
		}
	}
	return idx
}

// checkErrflowBody analyzes one function or literal body. Nested
// literals are opaque here (they get their own invocation); the def/use
// layer marks variables they capture as escaped.
func checkErrflowBody(pass *engine.Pass, body *ast.BlockStmt, naked bool) {
	var cfg *engine.CFG // built lazily: most bodies track nothing

	type trackedDef struct {
		obj    types.Object
		pos    ast.Node
		callee string
	}
	var defs []trackedDef

	// topLevel walks body but not nested literals.
	var topLevel func(n ast.Node, visit func(ast.Node) bool)
	topLevel = func(n ast.Node, visit func(ast.Node) bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok && m != n {
				return false
			}
			return visit(m)
		})
	}

	topLevel(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			call, ok := n.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn, name := moduleCallee(pass, call)
			if fn == nil {
				return true
			}
			if idx := errResultIndexes(fn); len(idx) > 0 {
				pass.Reportf(call.Pos(),
					"error result of %s discarded: consume it on every path or assign and check it", name)
			}
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			fn, name := moduleCallee(pass, call)
			if fn == nil {
				return true
			}
			idx := errResultIndexes(fn)
			if len(idx) == 0 {
				return true
			}
			sig := fn.Type().(*types.Signature)
			for _, i := range idx {
				if sig.Results().Len() != len(n.Lhs) && sig.Results().Len() > 1 {
					continue // assigned as a tuple mismatch; let the compiler complain
				}
				pos := i
				if sig.Results().Len() == 1 {
					if len(n.Lhs) != 1 {
						continue
					}
					pos = 0
				}
				id, ok := n.Lhs[pos].(*ast.Ident)
				if !ok {
					continue
				}
				if id.Name == "_" {
					pass.Reportf(id.Pos(),
						"error result of %s assigned to _: name it and consume it, or carry a //lint:allow errflow with the reason it is safe to drop", name)
					continue
				}
				obj := pass.TypesInfo.Defs[id]
				if obj == nil {
					obj = pass.TypesInfo.Uses[id]
				}
				if v, ok := obj.(*types.Var); ok && !v.IsField() &&
					v.Pos() >= body.Pos() && v.Pos() < body.End() {
					defs = append(defs, trackedDef{obj: obj, pos: id, callee: name})
				}
			}
		case *ast.CallExpr:
			// Callback literals with error parameters handed to module
			// APIs: the done-func shape.
			fn, name := moduleCallee(pass, n)
			if fn == nil {
				return true
			}
			for _, arg := range n.Args {
				lit, ok := arg.(*ast.FuncLit)
				if !ok || lit.Type.Params == nil {
					continue
				}
				checkCallbackErrParams(pass, lit, name, &cfg)
			}
		}
		return true
	})

	if len(defs) == 0 {
		return
	}
	if cfg == nil {
		cfg = engine.BuildCFG(body)
	}
	for _, d := range defs {
		fl := engine.FlowFor(cfg, pass.TypesInfo, d.obj)
		if naked {
			fl.MarkNakedReturnUse()
		}
		switch fl.DropPaths(d.pos.Pos()) {
		case engine.DropExit:
			pass.Reportf(d.pos.Pos(),
				"error from %s is dropped: a path reaches function exit without reading it", d.callee)
		case engine.DropOverwrite:
			pass.Reportf(d.pos.Pos(),
				"error from %s is overwritten before being read on some path", d.callee)
		}
	}
}

// checkCallbackErrParams flags error-typed parameters of a callback
// literal that some path ignores. cfgSlot is unused here (each literal
// builds its own CFG) but threaded so future layers can share.
func checkCallbackErrParams(pass *engine.Pass, lit *ast.FuncLit, callee string, _ **engine.CFG) {
	var litCFG *engine.CFG
	for _, field := range lit.Type.Params.List {
		ft := pass.TypesInfo.TypeOf(field.Type)
		if ft == nil || !implementsError(ft) {
			continue
		}
		if len(field.Names) == 0 {
			pass.Reportf(field.Pos(),
				"error parameter of callback passed to %s is unnamed and so silently ignored", callee)
			continue
		}
		for _, id := range field.Names {
			if id.Name == "_" {
				pass.Reportf(id.Pos(),
					"error parameter of callback passed to %s is discarded with _", callee)
				continue
			}
			obj := pass.TypesInfo.Defs[id]
			if obj == nil {
				continue
			}
			if litCFG == nil {
				litCFG = engine.BuildCFG(lit.Body)
			}
			fl := engine.FlowFor(litCFG, pass.TypesInfo, obj)
			if namedResults(lit.Type) {
				fl.MarkNakedReturnUse()
			}
			switch fl.DropFromEntry() {
			case engine.DropExit:
				pass.Reportf(id.Pos(),
					"error parameter %s of callback passed to %s is ignored on a path to return", id.Name, callee)
			case engine.DropOverwrite:
				pass.Reportf(id.Pos(),
					"error parameter %s of callback passed to %s is overwritten before being read", id.Name, callee)
			}
		}
	}
}
