// Package lint hosts pdsilint's analyzers: custom static checks that
// enforce the determinism and invariant contracts every result in this
// repository depends on. Same seed must mean bit-identical output, so
// wall clocks, the global rand source, map iteration order leaking into
// observable state, ad-hoc metric names, and unwrappable sentinel-error
// comparisons are all compile-time errors here, not code-review nits.
//
// Each analyzer honors a //lint:allow <name> escape-hatch comment on
// the flagged line or the line above; the policy for using one is in
// DESIGN.md ("Determinism invariants and static enforcement").
package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/engine"
)

// All returns every pdsilint analyzer in deterministic order.
func All() []*engine.Analyzer {
	return []*engine.Analyzer{
		Globalrand,
		Maporder,
		Metricname,
		Errwrap,
		Goroutine,
		Errflow,
		Walltimereach,
	}
}

// pkgFuncCall reports whether call invokes a package-level function of
// the package with import path pkgPath, returning its name. The check
// resolves the qualifier through go/types, so renamed imports and
// shadowed identifiers are handled correctly.
func pkgFuncCall(info *types.Info, call *ast.CallExpr, pkgPath string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != pkgPath {
		return "", false
	}
	if _, ok := info.Uses[sel.Sel].(*types.Func); !ok {
		return "", false
	}
	return sel.Sel.Name, true
}

// namedRecv reports the named type (pointer-stripped) of a method
// call's receiver, or nil.
func namedRecv(info *types.Info, call *ast.CallExpr) *types.Named {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s, ok := info.Selections[sel]
	if !ok {
		return nil
	}
	t := s.Recv()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// isObsType reports whether named is the given type from internal/obs.
func isObsType(named *types.Named, name string) bool {
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == name &&
		strings.HasSuffix(named.Obj().Pkg().Path(), "internal/obs")
}

// errorIface is the universe error interface.
var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// implementsError reports whether t satisfies the error interface.
func implementsError(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorIface) || types.Implements(types.NewPointer(t), errorIface)
}

// isTestFile reports whether the file containing pos is a _test.go file.
func isTestFile(pass *engine.Pass, n ast.Node) bool {
	return strings.HasSuffix(pass.Fset.Position(n.Pos()).Filename, "_test.go")
}
