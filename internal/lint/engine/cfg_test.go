package engine_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"repro/internal/lint/engine"
)

// parseFunc type-checks one source file and returns the named function
// plus the type info, for CFG/def-use tests.
func parseFunc(t *testing.T, src, name string) (*ast.FuncDecl, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Error: func(err error) {}} // tolerate missing imports
	pkg, _ := conf.Check("p", fset, []*ast.File{f}, info)
	_ = pkg
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd, info
		}
	}
	t.Fatalf("function %s not found", name)
	return nil, nil
}

// defOf finds the object and definition position of the named variable.
func defOf(t *testing.T, fd *ast.FuncDecl, info *types.Info, name string) (types.Object, token.Pos) {
	t.Helper()
	var obj types.Object
	var pos token.Pos
	ast.Inspect(fd, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			if o := info.Defs[id]; o != nil && obj == nil {
				obj, pos = o, id.Pos()
			}
		}
		return true
	})
	if obj == nil {
		t.Fatalf("no definition of %s", name)
	}
	return obj, pos
}

func dropKindOf(t *testing.T, src string) engine.DropKind {
	t.Helper()
	fd, info := parseFunc(t, src, "f")
	cfg := engine.BuildCFG(fd.Body)
	obj, pos := defOf(t, fd, info, "err")
	fl := engine.FlowFor(cfg, info, obj)
	if fd.Type.Results != nil {
		for _, fld := range fd.Type.Results.List {
			if len(fld.Names) > 0 {
				fl.MarkNakedReturnUse()
				break
			}
		}
	}
	return fl.DropPaths(pos)
}

func TestDropPathsCleanCheck(t *testing.T) {
	src := `package p
func g() error { return nil }
func f() error {
	err := g()
	if err != nil {
		return err
	}
	return nil
}`
	if k := dropKindOf(t, src); k != engine.DropNone {
		t.Fatalf("clean check classified %v, want DropNone", k)
	}
}

func TestDropPathsExit(t *testing.T) {
	src := `package p
func g() error { return nil }
func f(fast bool) error {
	err := g()
	if fast {
		return nil
	}
	return err
}`
	if k := dropKindOf(t, src); k != engine.DropExit {
		t.Fatalf("early-return drop classified %v, want DropExit", k)
	}
}

func TestDropPathsOverwrite(t *testing.T) {
	src := `package p
func g() error { return nil }
func f() error {
	err := g()
	err = g()
	return err
}`
	if k := dropKindOf(t, src); k != engine.DropOverwrite {
		t.Fatalf("overwrite drop classified %v, want DropOverwrite", k)
	}
}

func TestDropPathsLoopRedefIsClean(t *testing.T) {
	src := `package p
func g() error { return nil }
func use(error) {}
func f(n int) {
	for i := 0; i < n; i++ {
		err := g()
		use(err)
	}
}`
	if k := dropKindOf(t, src); k != engine.DropNone {
		t.Fatalf("loop redef classified %v, want DropNone (use precedes back-edge redef)", k)
	}
}

func TestDropPathsSwitchMissingArm(t *testing.T) {
	src := `package p
func g() error { return nil }
func use(error) {}
func f(mode int) {
	err := g()
	switch mode {
	case 0:
		use(err)
	case 1:
	}
}`
	if k := dropKindOf(t, src); k != engine.DropExit {
		t.Fatalf("switch with unchecked arm classified %v, want DropExit", k)
	}
}

func TestDropPathsClosureEscapes(t *testing.T) {
	src := `package p
func g() error { return nil }
func run(fn func()) {}
func f() {
	err := g()
	run(func() {
		if err != nil {
			panic(err)
		}
	})
}`
	if k := dropKindOf(t, src); k != engine.DropEscaped {
		t.Fatalf("closure capture classified %v, want DropEscaped", k)
	}
}

func TestDropPathsDeferEscapes(t *testing.T) {
	src := `package p
func g() error { return nil }
func use(error) {}
func f() {
	err := g()
	defer use(err)
}`
	if k := dropKindOf(t, src); k != engine.DropEscaped {
		t.Fatalf("deferred use classified %v, want DropEscaped", k)
	}
}

func TestDropPathsNakedReturn(t *testing.T) {
	src := `package p
func g() error { return nil }
func f() (err error) {
	err = g()
	return
}`
	if k := dropKindOf(t, src); k != engine.DropNone {
		t.Fatalf("named result + naked return classified %v, want DropNone", k)
	}
}

func TestDropPathsPanicConsumes(t *testing.T) {
	src := `package p
func g() error { return nil }
func f() {
	err := g()
	if err != nil {
		panic("boom")
	}
}`
	if k := dropKindOf(t, src); k != engine.DropNone {
		t.Fatalf("panic guard classified %v, want DropNone (cond reads err on every path)", k)
	}
}

// TestCFGShapes sanity-checks block structure for the statement forms
// the builder must model: loops have back edges, breaks reach the after
// block, selects branch per clause.
func TestCFGShapes(t *testing.T) {
	src := `package p
func f(n int) int {
	total := 0
	for i := 0; i < n; i++ {
		if i == 3 {
			break
		}
		total += i
	}
	switch {
	case n > 10:
		total++
	default:
		total--
	}
	return total
}`
	fd, _ := parseFunc(t, src, "f")
	cfg := engine.BuildCFG(fd.Body)
	if len(cfg.Blocks) < 6 {
		t.Fatalf("got %d blocks, want a branching graph", len(cfg.Blocks))
	}
	// Every block's successors must be in the graph, and the exit block
	// must be reachable from the entry.
	index := map[*engine.Block]bool{}
	for _, b := range cfg.Blocks {
		index[b] = true
	}
	for _, b := range cfg.Blocks {
		for _, s := range b.Succs {
			if !index[s] {
				t.Fatalf("block %d has successor outside graph", b.Index)
			}
		}
	}
	seen := map[*engine.Block]bool{}
	var walk func(b *engine.Block)
	walk = func(b *engine.Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			walk(s)
		}
	}
	walk(cfg.Blocks[0])
	if !seen[cfg.Exit] {
		t.Fatal("exit block unreachable from entry")
	}
}
