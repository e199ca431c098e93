package engine

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Unit is one type-checked collection of files: a plain package, a
// package augmented with its in-package _test.go files, or an external
// _test package. Analyzers see units, not bare packages, so test code
// is linted under the same contracts as production code.
type Unit struct {
	ImportPath string
	// ModulePath is the module the loader was rooted at; analyzers use
	// it to tell module-internal callees from stdlib ones.
	ModulePath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
	// IsTest marks units that include _test.go files.
	IsTest bool

	// allows maps filename -> line -> comma-joined analyzer names from
	// //lint:allow directives, collected at parse time.
	allows map[string]map[int]string

	// allowFiles maps filename -> comma-joined analyzer names from
	// file-scope //lint:allowfile directives.
	allowFiles map[string]string
}

// FileAllowed reports whether a file-scope //lint:allowfile directive
// in the file containing pos names the given analyzer. Analyzers whose
// policy hangs on sanctioned-site files (walltime-reach's Stopwatch
// root) query this directly.
func (u *Unit) FileAllowed(pos token.Pos, analyzer string) bool {
	if !pos.IsValid() {
		return false
	}
	return nameListHas(u.allowFiles[u.Fset.Position(pos).Filename], analyzer)
}

// Loader parses and type-checks packages without the go/packages
// machinery (which lives in x/tools, unavailable offline). Imports of
// this module's own packages resolve by walking the source tree;
// everything else falls back to the standard library's source importer,
// which type-checks GOROOT packages from source and needs no network or
// export data.
type Loader struct {
	ModuleRoot string
	ModulePath string
	Fset       *token.FileSet

	std     types.ImporterFrom
	plain   map[string]*types.Package // cache of non-test packages
	loading map[string]bool           // import cycle detection
	extra   map[string]string         // import path -> dir (testdata fixtures)
}

// NewLoader returns a loader rooted at moduleRoot (the directory
// holding go.mod, from which the module path is read).
func NewLoader(moduleRoot string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(moduleRoot, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint loader: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint loader: no module line in %s/go.mod", moduleRoot)
	}
	fset := token.NewFileSet()
	l := &Loader{
		ModuleRoot: moduleRoot,
		ModulePath: modPath,
		Fset:       fset,
		plain:      map[string]*types.Package{},
		loading:    map[string]bool{},
		extra:      map[string]string{},
	}
	l.std = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	return l, nil
}

// RegisterDir maps an import path outside the module (testdata fixture
// packages) to a directory so fixtures can import one another.
func (l *Loader) RegisterDir(importPath, dir string) { l.extra[importPath] = dir }

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if d, ok := l.extra[path]; ok {
		return l.loadPlain(path, d)
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		return l.loadPlain(path, filepath.Join(l.ModuleRoot, filepath.FromSlash(rel)))
	}
	return l.std.ImportFrom(path, dir, mode)
}

// loadPlain type-checks the non-test files of one directory, with
// caching and import-cycle detection.
func (l *Loader) loadPlain(path, dir string) (*types.Package, error) {
	if pkg, ok := l.plain[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	files, _, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no non-test Go files in %s", dir)
	}
	pkg, _, err := l.check(path, files)
	if err != nil {
		return nil, err
	}
	l.plain[path] = pkg
	return pkg, nil
}

// parseDir parses every .go file in dir, returning non-test files and
// test files separately, each sorted by filename. Files excluded by
// build constraints — a //go:build line or a GOOS/GOARCH filename
// suffix that does not match the current context — are skipped, the
// way the go tool would skip them, so a foo_windows.go or a
// `//go:build ignore` helper cannot break type-checking of the rest of
// the package.
func (l *Loader) parseDir(dir string) (plain, test []*ast.File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	ctx := build.Default
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasPrefix(e.Name(), ".") {
			if match, err := ctx.MatchFile(dir, e.Name()); err != nil || !match {
				continue
			}
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		if strings.HasSuffix(name, "_test.go") {
			test = append(test, f)
		} else {
			plain = append(plain, f)
		}
	}
	return plain, test, nil
}

// check runs go/types over files as package path.
func (l *Loader) check(path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		Sizes:       types.SizesFor("gc", build.Default.GOARCH),
	}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return pkg, info, nil
}

// unitFor builds one analyzed Unit over files.
func (l *Loader) unitFor(importPath, dir string, files []*ast.File, isTest bool) (*Unit, error) {
	pkg, info, err := l.check(importPath, files)
	if err != nil {
		return nil, err
	}
	u := &Unit{
		ImportPath: importPath,
		ModulePath: l.ModulePath,
		Dir:        dir,
		Fset:       l.Fset,
		Files:      files,
		Pkg:        pkg,
		Info:       info,
		IsTest:     isTest,
		allows:     map[string]map[int]string{},
		allowFiles: map[string]string{},
	}
	for _, f := range files {
		l.collectAllows(u, f)
	}
	return u, nil
}

// LoadDir loads the single package in dir under the given import path
// (used for testdata fixtures). In-package _test.go files are merged
// into the unit, exactly as LoadAll does for module packages, so
// fixtures can exercise analyzer behavior that depends on test-file
// context; external _test packages in fixtures are not supported.
func (l *Loader) LoadDir(importPath, dir string) (*Unit, error) {
	l.RegisterDir(importPath, dir)
	plain, test, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	files := append([]*ast.File{}, plain...)
	isTest := false
	for _, f := range test {
		if !strings.HasSuffix(f.Name.Name, "_test") {
			files = append(files, f)
			isTest = true
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	return l.unitFor(importPath, dir, files, isTest)
}

// LoadAll walks the module tree and returns one unit per package: the
// package itself merged with its in-package _test.go files (so test
// code is linted too), plus a separate unit for any external _test
// package. Directories named testdata, vendored trees, and hidden
// directories are skipped, matching go tool conventions.
func (l *Loader) LoadAll() ([]*Unit, error) {
	var dirs []string
	seen := map[string]bool{}
	err := filepath.WalkDir(l.ModuleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != l.ModuleRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") {
			// Walk order interleaves subdirectories between a directory's
			// own files (bench_test.go < cmd/ < integration_test.go), so a
			// "same as last" check would load the module root twice; dedupe
			// with a set.
			dir := filepath.Dir(path)
			if !seen[dir] {
				seen[dir] = true
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)

	var units []*Unit
	for _, dir := range dirs {
		us, err := l.LoadDirUnits(dir)
		if err != nil {
			return nil, err
		}
		units = append(units, us...)
	}
	return units, nil
}

// LoadDirUnits loads the package rooted at one module directory: the
// package merged with its in-package _test.go files, plus a separate
// unit for an external _test package when present.
func (l *Loader) LoadDirUnits(dir string) ([]*Unit, error) {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil {
		return nil, err
	}
	if strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("%s is outside module root %s", dir, l.ModuleRoot)
	}
	importPath := l.ModulePath
	if rel != "." {
		importPath = l.ModulePath + "/" + filepath.ToSlash(rel)
	}
	plain, test, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(plain)+len(test) == 0 {
		return nil, nil
	}
	var inPkg, external []*ast.File
	for _, f := range test {
		if strings.HasSuffix(f.Name.Name, "_test") {
			external = append(external, f)
		} else {
			inPkg = append(inPkg, f)
		}
	}
	var units []*Unit
	if len(plain)+len(inPkg) > 0 {
		u, err := l.unitFor(importPath, dir, append(append([]*ast.File{}, plain...), inPkg...), len(inPkg) > 0)
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	if len(external) > 0 {
		u, err := l.unitFor(importPath+"_test", dir, external, true)
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	return units, nil
}

// collectAllows scans a file's comments for //lint:allow and
// //lint:allowfile directives. Grammar:
//
//	//lint:allow name[,name...] [-- free-text reason]
//	//lint:allowfile name[,name...] -- reason
//
// An allow directive covers its own line and the line immediately
// below. An allowfile directive covers the whole file it appears in —
// the sanctioned-site form for files whose entire purpose is an
// exception (the Stopwatch shim, the cluster shard runners) — and must
// carry a reason.
func (l *Loader) collectAllows(u *Unit, f *ast.File) {
	for _, group := range f.Comments {
		for _, c := range group.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if rest, ok := strings.CutPrefix(text, "lint:allowfile"); ok {
				names, reason, hasReason := strings.Cut(strings.TrimSpace(rest), " -- ")
				names = strings.TrimSpace(names)
				if names == "" || !hasReason || strings.TrimSpace(reason) == "" {
					continue // a file-scope waiver without a reason is inert
				}
				p := l.Fset.Position(c.Slash)
				if prev := u.allowFiles[p.Filename]; prev != "" {
					names = prev + "," + names
				}
				u.allowFiles[p.Filename] = names
				continue
			}
			rest, ok := strings.CutPrefix(text, "lint:allow")
			if !ok {
				continue
			}
			names, _, _ := strings.Cut(strings.TrimSpace(rest), " -- ")
			names = strings.TrimSpace(names)
			if names == "" {
				continue
			}
			p := l.Fset.Position(c.Slash)
			lines := u.allows[p.Filename]
			if lines == nil {
				lines = map[int]string{}
				u.allows[p.Filename] = lines
			}
			if prev := lines[p.Line]; prev != "" {
				names = prev + "," + names
			}
			lines[p.Line] = names
		}
	}
}
