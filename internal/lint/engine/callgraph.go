package engine

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds a module-wide static call graph over the units a
// Loader produced. Because each unit is type-checked independently (the
// merged-with-tests unit and the import-time instance of the same
// package hold distinct types.Func objects), nodes are keyed by a
// canonical string FuncID derived from package path, receiver, and
// name, which is stable across type-checker instances.
//
// The graph is deliberately simple: direct calls and static method
// calls produce Call edges; mentioning a function without calling it
// (passing it as a value, assigning it to a variable) produces a Ref
// edge, so reachability analyses stay conservative. Function literals
// get their own synthetic nodes (parentID$n, in source order) with a
// Ref edge from the enclosing function; literals bound to a local
// variable are resolved at call sites through that variable. Dynamic
// dispatch through interfaces and arbitrary function-typed values is
// not modeled — edges end at the interface method or nowhere — which
// analyzers must state in their Doc.

// FuncID is the canonical, cross-unit identity of a function:
// "pkg/path.Name", "pkg/path.(Recv).Name" for methods, and
// "parent$n" for the n-th function literal inside parent.
type FuncID string

// IDOf returns the canonical id of a named function or method.
func IDOf(fn *types.Func) FuncID {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		name := "?"
		switch t := t.(type) {
		case *types.Named:
			name = t.Obj().Name()
		case *types.Alias:
			name = t.Obj().Name()
		case *types.Interface:
			name = "interface"
		}
		return FuncID(fmt.Sprintf("%s.(%s).%s", pkg, name, fn.Name()))
	}
	return FuncID(pkg + "." + fn.Name())
}

// EdgeKind distinguishes a call from a bare reference.
type EdgeKind int

const (
	EdgeCall EdgeKind = iota
	EdgeRef
)

// Edge is one caller->callee relation at one source position.
type Edge struct {
	From FuncID
	To   FuncID
	Kind EdgeKind
	Pos  token.Pos
}

// FuncNode is one function (declared or literal) in the graph.
type FuncNode struct {
	ID   FuncID
	Unit *Unit
	Pos  token.Pos      // declaration (or literal) position
	Decl ast.Node       // *ast.FuncDecl or *ast.FuncLit
	Body *ast.BlockStmt // nil for declarations without bodies
	Out  []Edge         // sorted by (To, Pos) for determinism
	// TestOnly marks functions declared in _test.go files.
	TestOnly bool
}

// CallGraph is the module-wide graph.
type CallGraph struct {
	Nodes map[FuncID]*FuncNode
	ids   []FuncID // sorted, for deterministic iteration
}

// SortedIDs returns every node id in sorted order.
func (g *CallGraph) SortedIDs() []FuncID { return g.ids }

// BuildCallGraph assembles the graph over units. Each unit contributes
// the functions it declares; bodies are walked once. When two units
// declare the same FuncID (a package and its merged-test twin never do,
// but a fixture could), the first unit in order wins.
func BuildCallGraph(units []*Unit) *CallGraph {
	g := &CallGraph{Nodes: map[FuncID]*FuncNode{}}
	for _, u := range units {
		for _, n := range unitFuncs(u) {
			if _, dup := g.Nodes[n.ID]; !dup {
				g.Nodes[n.ID] = n
			}
		}
	}
	g.ids = make([]FuncID, 0, len(g.Nodes))
	for id := range g.Nodes {
		g.ids = append(g.ids, id)
	}
	sort.Slice(g.ids, func(i, j int) bool { return g.ids[i] < g.ids[j] })
	return g
}

// unitFuncs computes the function nodes and edges a unit contributes.
func unitFuncs(u *Unit) []*FuncNode {
	var out []*FuncNode
	for _, f := range u.Files {
		testFile := strings.HasSuffix(u.Fset.Position(f.Pos()).Filename, "_test.go")
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj, _ := u.Info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			node := &FuncNode{
				ID:       IDOf(obj),
				Unit:     u,
				Pos:      fd.Name.Pos(),
				Decl:     fd,
				Body:     fd.Body,
				TestOnly: testFile,
			}
			out = append(out, node)
			if fd.Body != nil {
				out = append(out, collectEdges(u, node, fd.Body, testFile)...)
			}
		}
	}
	for _, n := range out {
		sort.Slice(n.Out, func(i, j int) bool {
			if n.Out[i].To != n.Out[j].To {
				return n.Out[i].To < n.Out[j].To
			}
			return n.Out[i].Pos < n.Out[j].Pos
		})
	}
	return out
}

// collectEdges walks one function body, creating nodes for its function
// literals and Call/Ref edges for everything it invokes or mentions.
// Returned nodes are the literal nodes created beneath parent.
func collectEdges(u *Unit, parent *FuncNode, body *ast.BlockStmt, testFile bool) []*FuncNode {
	var lits []*FuncNode

	// funcVars maps a local variable object to the ids of the function
	// literals (or named functions) assigned to it anywhere in this
	// body, so `var f func(); f = func(){...}; f()` resolves.
	funcVars := map[types.Object][]FuncID{}

	// First pass: allocate literal nodes in source order and record
	// local function-variable bindings.
	litOf := map[*ast.FuncLit]*FuncNode{}
	nLit := 0
	var alloc func(n ast.Node, owner *FuncNode)
	alloc = func(n ast.Node, owner *FuncNode) {
		ast.Inspect(n, func(m ast.Node) bool {
			lit, ok := m.(*ast.FuncLit)
			if !ok {
				return true
			}
			nLit++
			ln := &FuncNode{
				ID:       FuncID(fmt.Sprintf("%s$%d", parent.ID, nLit)),
				Unit:     u,
				Pos:      lit.Pos(),
				Decl:     lit,
				Body:     lit.Body,
				TestOnly: testFile,
			}
			litOf[lit] = ln
			lits = append(lits, ln)
			// creation edge: the enclosing function references the literal.
			owner.Out = append(owner.Out, Edge{From: owner.ID, To: ln.ID, Kind: EdgeRef, Pos: lit.Pos()})
			alloc(lit.Body, ln)
			return false
		})
	}
	alloc(body, parent)

	bind := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		obj := u.Info.Defs[id]
		if obj == nil {
			obj = u.Info.Uses[id]
		}
		if obj == nil {
			return
		}
		switch r := rhs.(type) {
		case *ast.FuncLit:
			if ln := litOf[r]; ln != nil {
				funcVars[obj] = append(funcVars[obj], ln.ID)
			}
		case *ast.Ident:
			if fo, ok := u.Info.Uses[r].(*types.Func); ok {
				funcVars[obj] = append(funcVars[obj], IDOf(fo))
			}
		}
	}
	ast.Inspect(body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.AssignStmt:
			if len(m.Lhs) == len(m.Rhs) {
				for i := range m.Lhs {
					bind(m.Lhs[i], m.Rhs[i])
				}
			}
		case *ast.DeclStmt:
			if gd, ok := m.Decl.(*ast.GenDecl); ok {
				for _, sp := range gd.Specs {
					if vs, ok := sp.(*ast.ValueSpec); ok && len(vs.Names) == len(vs.Values) {
						for i := range vs.Names {
							bind(vs.Names[i], vs.Values[i])
						}
					}
				}
			}
		}
		return true
	})

	// Second pass: edges, attributed to the innermost enclosing node.
	var walk func(n ast.Node, owner *FuncNode)
	walk = func(n ast.Node, owner *FuncNode) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				walk(m.Body, litOf[m])
				return false
			case *ast.CallExpr:
				for _, to := range CalleeIDs(u.Info, m, funcVars, litOf) {
					owner.Out = append(owner.Out, Edge{From: owner.ID, To: to, Kind: EdgeCall, Pos: m.Lparen})
				}
				// Arguments containing bare function references become
				// Ref edges via the Ident case below.
				return true
			case *ast.Ident:
				if fo, ok := u.Info.Uses[m].(*types.Func); ok {
					owner.Out = append(owner.Out, Edge{From: owner.ID, To: IDOf(fo), Kind: EdgeRef, Pos: m.Pos()})
				}
			}
			return true
		})
	}
	walk(body, parent)
	return lits
}

// CalleeIDs resolves the static callees of one call expression:
// a named function or method, a local variable bound to function
// literals, or a directly invoked literal. funcVars and litOf may be
// nil. Unresolvable calls yield nil.
func CalleeIDs(info *types.Info, call *ast.CallExpr, funcVars map[types.Object][]FuncID, litOf map[*ast.FuncLit]*FuncNode) []FuncID {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fo, ok := info.Uses[fun].(*types.Func); ok {
			return []FuncID{IDOf(fo)}
		}
		if funcVars != nil {
			if obj := info.Uses[fun]; obj != nil {
				return append([]FuncID(nil), funcVars[obj]...)
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fo, ok := sel.Obj().(*types.Func); ok {
				return []FuncID{IDOf(fo)}
			}
			return nil
		}
		if fo, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return []FuncID{IDOf(fo)}
		}
	case *ast.FuncLit:
		if litOf != nil {
			if ln := litOf[fun]; ln != nil {
				return []FuncID{ln.ID}
			}
		}
	}
	return nil
}

// Reachable returns the set of node ids reachable from the given roots
// by following edges of any kind, roots included. Traversal order is
// deterministic (edges are sorted); ids outside the graph are carried
// into the result but not expanded.
func (g *CallGraph) Reachable(roots []FuncID) map[FuncID]bool {
	seen := map[FuncID]bool{}
	stack := append([]FuncID(nil), roots...)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[id] {
			continue
		}
		seen[id] = true
		n := g.Nodes[id]
		if n == nil {
			continue
		}
		for i := len(n.Out) - 1; i >= 0; i-- {
			if !seen[n.Out[i].To] {
				stack = append(stack, n.Out[i].To)
			}
		}
	}
	return seen
}

// PathTo returns one shortest edge path from `from` to any id for which
// goal returns true, or nil. Deterministic: BFS expands edges in their
// sorted order.
func (g *CallGraph) PathTo(from FuncID, goal func(FuncID) bool) []Edge {
	type qe struct {
		id   FuncID
		path []Edge
	}
	seen := map[FuncID]bool{from: true}
	queue := []qe{{id: from}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if goal(cur.id) {
			return cur.path
		}
		n := g.Nodes[cur.id]
		if n == nil {
			continue
		}
		for _, e := range n.Out {
			if seen[e.To] {
				continue
			}
			seen[e.To] = true
			p := append(append([]Edge(nil), cur.path...), e)
			queue = append(queue, qe{id: e.To, path: p})
		}
	}
	return nil
}
