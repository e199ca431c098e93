package engine

import (
	"go/ast"
	"go/token"
)

// CFG is a per-function control-flow graph over statements, in the
// style of golang.org/x/tools/go/cfg (unavailable offline). Each Block
// holds the statements and control expressions that execute
// unconditionally once the block is entered, in source order; Succs are
// the possible continuations. Calls do not end blocks — the graph
// models branching, not exceptions — but panic(...) statements and
// calls that the builder can prove never return are treated as jumps to
// Exit so error-path analyses do not follow impossible fallthroughs.
//
// Defer bodies are not spliced into the graph: deferred statements are
// collected in Defers, and analyses that care (the errflow drop check)
// treat values referenced by a deferred call as live at every exit.
type CFG struct {
	Blocks []*Block // Blocks[0] is the entry block
	Exit   *Block   // the single synthetic exit block
	Defers []*ast.DeferStmt
}

// Block is one basic block.
type Block struct {
	Index int
	Nodes []ast.Node // stmts and control exprs in execution order
	Succs []*Block
}

// BuildCFG constructs the control-flow graph of one function body.
// body may be nil (declarations without bodies yield an empty graph).
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg:    &CFG{},
		labels: map[string]*labelInfo{},
	}
	b.cfg.Exit = b.newBlock() // allocated first so Exit has a stable home
	entry := b.newBlock()
	// Entry must be Blocks[0] by contract; swap the two.
	b.cfg.Blocks[0], b.cfg.Blocks[1] = b.cfg.Blocks[1], b.cfg.Blocks[0]
	b.cfg.Blocks[0].Index, b.cfg.Blocks[1].Index = 0, 1
	b.cur = entry
	if body != nil {
		b.stmtList(body.List)
	}
	b.link(b.cur, b.cfg.Exit)
	// Resolve forward gotos to labels defined later.
	for _, li := range b.labels {
		for _, from := range li.pendingGoto {
			if li.block == nil {
				// Undefined label: the package type-checked, so this
				// cannot happen; fall through to exit defensively.
				b.link(from, b.cfg.Exit)
				continue
			}
			b.link(from, li.block)
		}
	}
	return b.cfg
}

type labelInfo struct {
	block       *Block // block the label starts
	breakTo     *Block // where a labeled break jumps
	continueTo  *Block // where a labeled continue jumps
	pendingGoto []*Block
}

type cfgBuilder struct {
	cfg    *CFG
	cur    *Block
	breaks []*Block // innermost-last break targets (loops, switch, select)
	conts  []*Block // innermost-last continue targets (loops only)
	labels map[string]*labelInfo

	// label pending attachment to the next loop/switch statement.
	curLabel *labelInfo
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) link(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// startBlock links cur to a fresh block and makes it current.
func (b *cfgBuilder) startBlock() *Block {
	nb := b.newBlock()
	b.link(b.cur, nb)
	b.cur = nb
	return nb
}

// deadBlock makes a fresh, unreached block current (after return/goto).
func (b *cfgBuilder) deadBlock() {
	b.cur = b.newBlock()
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) add(n ast.Node) {
	if n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

// isPanic reports whether s is a panic(...) call statement.
func isPanic(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.ReturnStmt:
		b.add(s)
		b.link(b.cur, b.cfg.Exit)
		b.deadBlock()

	case *ast.DeferStmt:
		b.add(s)
		b.cfg.Defers = append(b.cfg.Defers, s)

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		condBlock := b.cur
		after := b.newBlock()

		thenEntry := b.newBlock()
		b.link(condBlock, thenEntry)
		b.cur = thenEntry
		b.stmt(s.Body)
		b.link(b.cur, after)

		if s.Else != nil {
			elseEntry := b.newBlock()
			b.link(condBlock, elseEntry)
			b.cur = elseEntry
			b.stmt(s.Else)
			b.link(b.cur, after)
		} else {
			b.link(condBlock, after)
		}
		b.cur = after

	case *ast.ForStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		header := b.startBlock()
		if s.Cond != nil {
			b.add(s.Cond)
		}
		after := b.newBlock()
		post := b.newBlock()
		if s.Cond != nil {
			b.link(header, after)
		}
		if b.curLabel != nil {
			b.curLabel.block = header
			b.curLabel.breakTo = after
			b.curLabel.continueTo = post
			b.curLabel = nil
		}
		body := b.newBlock()
		b.link(header, body)
		b.cur = body
		b.pushLoop(after, post)
		b.stmt(s.Body)
		b.popLoop()
		b.link(b.cur, post)
		b.cur = post
		if s.Post != nil {
			b.add(s.Post)
		}
		b.link(b.cur, header)
		b.cur = after

	case *ast.RangeStmt:
		b.add(s.X)
		header := b.startBlock()
		// The per-iteration key/value assignment happens at the top of
		// each iteration; record it as a node so def/use sees it.
		if s.Key != nil || s.Value != nil {
			header.Nodes = append(header.Nodes, s)
		}
		after := b.newBlock()
		b.link(header, after) // zero iterations
		if b.curLabel != nil {
			b.curLabel.block = header
			b.curLabel.breakTo = after
			b.curLabel.continueTo = header
			b.curLabel = nil
		}
		body := b.newBlock()
		b.link(header, body)
		b.cur = body
		b.pushLoop(after, header)
		b.stmt(s.Body)
		b.popLoop()
		b.link(b.cur, header)
		b.cur = after

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.caseClauses(s.Body.List, false)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.caseClauses(s.Body.List, false)

	case *ast.SelectStmt:
		b.caseClauses(s.Body.List, true)

	case *ast.LabeledStmt:
		li := b.labels[s.Label.Name]
		if li == nil {
			li = &labelInfo{}
			b.labels[s.Label.Name] = li
		}
		switch s.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			// The loop/switch builder fills in break/continue targets.
			b.curLabel = li
			b.stmt(s.Stmt)
			if li.block == nil {
				// switch/select: label only serves break; the statement
				// handler left curLabel set if it did not consume it.
				b.curLabel = nil
			}
		default:
			lb := b.startBlock()
			li.block = lb
			b.stmt(s.Stmt)
		}

	case *ast.BranchStmt:
		b.add(s)
		switch s.Tok {
		case token.BREAK:
			if s.Label != nil {
				if li := b.labels[s.Label.Name]; li != nil && li.breakTo != nil {
					b.link(b.cur, li.breakTo)
				}
			} else if n := len(b.breaks); n > 0 {
				b.link(b.cur, b.breaks[n-1])
			}
			b.deadBlock()
		case token.CONTINUE:
			if s.Label != nil {
				if li := b.labels[s.Label.Name]; li != nil && li.continueTo != nil {
					b.link(b.cur, li.continueTo)
				}
			} else if n := len(b.conts); n > 0 {
				b.link(b.cur, b.conts[n-1])
			}
			b.deadBlock()
		case token.GOTO:
			li := b.labels[s.Label.Name]
			if li == nil {
				li = &labelInfo{}
				b.labels[s.Label.Name] = li
			}
			if li.block != nil {
				b.link(b.cur, li.block)
			} else {
				li.pendingGoto = append(li.pendingGoto, b.cur)
			}
			b.deadBlock()
		case token.FALLTHROUGH:
			// Handled positionally by caseClauses; nothing to do here.
		}

	case *ast.ExprStmt:
		b.add(s)
		if isPanic(s) {
			b.link(b.cur, b.cfg.Exit)
			b.deadBlock()
		}

	default:
		// Assign, Decl, IncDec, Send, Go, Empty: straight-line.
		b.add(s)
	}
}

// caseClauses builds the n-way branch of a switch/type-switch (isSelect
// false) or select (true). Each clause body starts a fresh block hung
// off the current (header) block; fallthrough chains a clause into the
// next one.
func (b *cfgBuilder) caseClauses(clauses []ast.Stmt, isSelect bool) {
	header := b.cur
	after := b.newBlock()
	if b.curLabel != nil {
		b.curLabel.breakTo = after
		b.curLabel = nil
	}
	b.breaks = append(b.breaks, after)

	hasDefault := false
	bodies := make([]*Block, len(clauses))
	ends := make([]*Block, len(clauses))
	falls := make([]bool, len(clauses))
	for i, cl := range clauses {
		entry := b.newBlock()
		b.link(header, entry)
		b.cur = entry
		var body []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				hasDefault = true
			}
			for _, e := range cl.List {
				b.add(e)
			}
			body = cl.Body
		case *ast.CommClause:
			if cl.Comm == nil {
				hasDefault = true
			} else {
				b.add(cl.Comm)
			}
			body = cl.Body
		}
		bodies[i] = b.cur
		if n := len(body); n > 0 {
			if br, ok := body[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				falls[i] = true
			}
		}
		b.stmtList(body)
		ends[i] = b.cur
		b.link(b.cur, after)
	}
	for i := range clauses {
		if falls[i] && i+1 < len(clauses) {
			b.link(ends[i], bodies[i+1])
		}
	}
	if !hasDefault && !isSelect {
		b.link(header, after)
	}
	if !hasDefault && isSelect {
		// A select without default blocks until some case is ready; all
		// paths go through a clause, so no header->after edge. (With no
		// clauses at all it blocks forever; keep the edge to stay sound.)
		if len(clauses) == 0 {
			b.link(header, after)
		}
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = after
}

func (b *cfgBuilder) pushLoop(brk, cont *Block) {
	b.breaks = append(b.breaks, brk)
	b.conts = append(b.conts, cont)
}

func (b *cfgBuilder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.conts = b.conts[:len(b.conts)-1]
}
