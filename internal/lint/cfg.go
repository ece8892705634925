package lint

// Control-flow graphs over go/ast. The framework's first four analyzers
// were purely syntactic walks; the concurrency rules (lockbalance) need
// path sensitivity — "every Lock reaches an Unlock on ALL paths" is a
// statement about the CFG, not about any one AST node. This file builds
// a per-function CFG from the AST alone (no SSA, no x/tools), precise
// enough for the forward may-analyses in dataflow.go and small enough
// to hold in one's head:
//
//   - Blocks hold the nodes evaluated on that path segment, in
//     evaluation order: whole simple statements, plus the condition /
//     tag / range expressions of the control statement that ends the
//     block. Branch bodies are never stored inside a block — they get
//     their own blocks and edges.
//   - return, panic(...) and the implicit fall-off-the-end all edge to
//     the single Exit block, so "at function exit" is one program point.
//   - defer is recorded at its registration site (the DeferStmt node
//     appears in its block, and in CFG.Defers); analyses that care about
//     deferred calls treat a registered defer as running on every path
//     from its registration to Exit. That is exactly Go's semantics for
//     the may-analyses here — a defer seen on SOME path MAY run at exit.
//   - break/continue (labeled or not), goto, and switch fallthrough
//     produce real edges; unreachable blocks (code after return, bodies
//     of for{} nobody breaks out of) are pruned.
//   - Nested function literals are opaque: a FuncLit is a value, not
//     control flow of the enclosing function. Build a separate CFG for
//     its body (FuncBodies yields every declared and literal function).
//
// What this deliberately cannot prove: panics from called functions
// (only explicit panic(...) gets an exit edge), goroutine interleavings,
// and aliasing beyond what the analyses track themselves.

import (
	"fmt"
	"go/ast"
	"go/token"
)

// A Block is one straight-line segment of a function: the nodes
// evaluated in order, then a transfer of control to one of Succs.
type Block struct {
	// Index is the block's position in CFG.Blocks after pruning; Entry
	// is always 0 and Exit always last.
	Index int
	// Kind names how the block arose ("entry", "exit", "if.then",
	// "for.head", "range.body", "switch.case", "select.comm",
	// "label.retry", ...) — diagnostic only, but pinned by tests.
	Kind string
	// Nodes are the statements and control expressions evaluated in this
	// block, in evaluation order. Control statements themselves are not
	// stored — only their evaluated parts (an IfStmt contributes its
	// Cond here and its branches elsewhere).
	Nodes []ast.Node
	// Succs are the possible successors in source order.
	Succs []*Block
}

// A CFG is the control-flow graph of one function body.
type CFG struct {
	Entry *Block
	Exit  *Block
	// Blocks holds every reachable block plus Exit, Entry first and Exit
	// last, numbered by Index.
	Blocks []*Block
	// Defers lists every defer statement of the body (including ones in
	// unreachable code), in source order.
	Defers []*ast.DeferStmt
}

// NewCFG builds the control-flow graph of body.
func NewCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg:         &CFG{},
		labelBlocks: map[string]*Block{},
	}
	b.cfg.Entry = b.newBlock("entry")
	b.cfg.Exit = &Block{Kind: "exit"} // appended (and numbered) in finish
	b.cur = b.cfg.Entry
	b.stmt(body)
	b.jump(b.cfg.Exit) // implicit return at the end of the body
	b.finish()
	return b.cfg
}

// cfgBuilder carries the in-progress graph: the current block under
// construction, the stack of enclosing breakable/continuable contexts,
// and the label table goto resolution patches against.
type cfgBuilder struct {
	cfg *CFG
	// cur is the block new nodes append to; nil after a terminator
	// (return, break, goto) until the next label or join point revives
	// the flow — nodes added while nil land in a fresh unreachable block
	// that pruning removes.
	cur *Block

	// breaks is the stack of every enclosing breakable statement —
	// loops, switches, selects — innermost last: the targets of break.
	breaks []breakCtx
	// loops is the stack of enclosing for/range statements only,
	// innermost last: the targets of continue.
	loops []loopCtx

	// pendingLabel is the label naming the NEXT loop/switch statement,
	// so `outer: for ...` registers outer as that loop's label.
	pendingLabel string

	labelBlocks map[string]*Block
	gotoFixes   []gotoFix

	// fallTarget is the body block of the next case clause, the target
	// of a fallthrough in the current one.
	fallTarget *Block
}

type loopCtx struct {
	label  string
	contTo *Block
}

type breakCtx struct {
	label   string
	breakTo *Block
}

type gotoFix struct {
	from  *Block
	label string
}

func (b *cfgBuilder) newBlock(kind string) *Block {
	blk := &Block{Kind: kind}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// add appends a node to the current block, reviving a dead flow into a
// fresh (unreachable, later pruned) block if needed.
func (b *cfgBuilder) add(n ast.Node) {
	if n == nil {
		return
	}
	if b.cur == nil {
		b.cur = b.newBlock("dead")
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// edge links from → to.
func (b *cfgBuilder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
}

// jump ends the current block with an edge to target and kills the flow.
func (b *cfgBuilder) jump(target *Block) {
	b.edge(b.cur, target)
	b.cur = nil
}

// moveTo ends the current block with an edge into next and continues
// building there.
func (b *cfgBuilder) moveTo(next *Block) {
	b.edge(b.cur, next)
	b.cur = next
}

// takeLabel consumes the pending label for the statement being built.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			b.stmt(st)
		}
	case *ast.IfStmt:
		b.stmt(s.Init)
		b.add(s.Cond)
		cond := b.cur
		join := &Block{Kind: "if.join"} // registered after the branches
		then := b.newBlock("if.then")
		b.edge(cond, then)
		b.cur = then
		b.stmt(s.Body)
		b.edge(b.cur, join)
		if s.Else != nil {
			els := b.newBlock("if.else")
			b.edge(cond, els)
			b.cur = els
			b.stmt(s.Else)
			b.edge(b.cur, join)
		} else {
			b.edge(cond, join)
		}
		b.cfg.Blocks = append(b.cfg.Blocks, join)
		b.cur = join
	case *ast.ForStmt:
		label := b.takeLabel()
		b.stmt(s.Init)
		head := b.newBlock("for.head")
		body := b.newBlock("for.body")
		var post *Block
		if s.Post != nil {
			post = b.newBlock("for.post")
		}
		done := b.newBlock("for.done")
		b.moveTo(head)
		b.add(s.Cond)
		b.edge(head, body)
		if s.Cond != nil {
			b.edge(head, done)
		}
		contTo := head
		if post != nil {
			contTo = post
		}
		b.breaks = append(b.breaks, breakCtx{label: label, breakTo: done})
		b.loops = append(b.loops, loopCtx{label: label, contTo: contTo})
		if label != "" {
			b.labelBlocks[label] = head
		}
		b.cur = body
		b.stmt(s.Body)
		if post != nil {
			b.moveTo(post)
			b.stmt(s.Post)
		}
		b.jump(head)
		b.loops = b.loops[:len(b.loops)-1]
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.cur = done
	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock("range.head")
		body := b.newBlock("range.body")
		done := b.newBlock("range.done")
		b.moveTo(head)
		b.add(s.X)
		b.edge(head, body)
		b.edge(head, done)
		b.breaks = append(b.breaks, breakCtx{label: label, breakTo: done})
		b.loops = append(b.loops, loopCtx{label: label, contTo: head})
		if label != "" {
			b.labelBlocks[label] = head
		}
		b.cur = body
		b.stmt(s.Body)
		b.jump(head)
		b.loops = b.loops[:len(b.loops)-1]
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.cur = done
	case *ast.SwitchStmt:
		b.switchLike(s.Init, s.Tag, s.Body, "switch")
	case *ast.TypeSwitchStmt:
		// The x := y.(type) assign is recorded once in the head — it is
		// conceptually re-bound per clause, but for the forward
		// may-analyses here one evaluation before the branch is sound.
		b.switchLike(s.Init, nil, s.Body, "typeswitch", s.Assign)
	case *ast.SelectStmt:
		label := b.takeLabel()
		sel := b.cur
		if sel == nil {
			sel = b.newBlock("dead")
			b.cur = sel
		}
		done := &Block{Kind: "select.done"}
		b.breaks = append(b.breaks, breakCtx{label: label, breakTo: done})
		for _, c := range s.Body.List {
			comm := c.(*ast.CommClause)
			blk := b.newBlock("select.comm")
			b.edge(sel, blk)
			b.cur = blk
			b.stmt(comm.Comm)
			for _, st := range comm.Body {
				b.stmt(st)
			}
			b.edge(b.cur, done)
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		if len(s.Body.List) == 0 {
			b.edge(sel, done)
		}
		b.cfg.Blocks = append(b.cfg.Blocks, done)
		b.cur = done
	case *ast.LabeledStmt:
		name := s.Label.Name
		switch s.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			// The loop/switch registers its own head under this label.
			b.pendingLabel = name
			b.stmt(s.Stmt)
		default:
			lb := b.newBlock("label." + name)
			b.moveTo(lb)
			b.labelBlocks[name] = lb
			b.stmt(s.Stmt)
		}
	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			b.jump(b.breakTarget(s.Label))
		case token.CONTINUE:
			b.jump(b.continueTarget(s.Label))
		case token.GOTO:
			b.add(s)
			b.gotoFixes = append(b.gotoFixes, gotoFix{from: b.cur, label: s.Label.Name})
			b.cur = nil
		case token.FALLTHROUGH:
			b.jump(b.fallTarget)
		}
	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.cfg.Exit)
	case *ast.DeferStmt:
		b.add(s)
		b.cfg.Defers = append(b.cfg.Defers, s)
	case *ast.ExprStmt:
		b.add(s)
		if call, ok := s.X.(*ast.CallExpr); ok && isPanicCall(call) {
			b.jump(b.cfg.Exit)
		}
	default:
		// AssignStmt, DeclStmt, IncDecStmt, SendStmt, GoStmt, EmptyStmt:
		// straight-line, no control transfer.
		b.add(s)
	}
}

// switchLike builds switch and type-switch graphs: the head evaluates
// init and the tag, every case clause is a block fed from the head, and
// fallthrough edges into the next clause's block.
func (b *cfgBuilder) switchLike(init ast.Stmt, tag ast.Expr, body *ast.BlockStmt, kind string, extra ...ast.Node) {
	label := b.takeLabel()
	b.stmt(init)
	if tag != nil {
		b.add(tag)
	}
	for _, n := range extra {
		b.add(n)
	}
	head := b.cur
	if head == nil {
		head = b.newBlock("dead")
		b.cur = head
	}
	done := &Block{Kind: kind + ".done"}
	b.breaks = append(b.breaks, breakCtx{label: label, breakTo: done})

	var clauses []*ast.CaseClause
	for _, c := range body.List {
		clauses = append(clauses, c.(*ast.CaseClause))
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		blocks[i] = b.newBlock(kind + ".case")
		b.edge(head, blocks[i])
		if c.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(head, done)
	}
	for i, c := range clauses {
		b.cur = blocks[i]
		for _, e := range c.List {
			b.add(e)
		}
		if i+1 < len(blocks) {
			b.fallTarget = blocks[i+1]
		} else {
			b.fallTarget = nil
		}
		for _, st := range c.Body {
			b.stmt(st)
		}
		b.edge(b.cur, done)
	}
	b.fallTarget = nil
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cfg.Blocks = append(b.cfg.Blocks, done)
	b.cur = done
}

// breakTarget resolves a break to its innermost (or labeled) enclosing
// loop, switch or select.
func (b *cfgBuilder) breakTarget(label *ast.Ident) *Block {
	if label == nil {
		if n := len(b.breaks); n > 0 {
			return b.breaks[n-1].breakTo
		}
		return b.cfg.Exit
	}
	for i := len(b.breaks) - 1; i >= 0; i-- {
		if b.breaks[i].label == label.Name {
			return b.breaks[i].breakTo
		}
	}
	return b.cfg.Exit
}

// continueTarget resolves a continue to its loop's post/head block.
func (b *cfgBuilder) continueTarget(label *ast.Ident) *Block {
	if label == nil {
		if n := len(b.loops); n > 0 {
			return b.loops[n-1].contTo
		}
		return b.cfg.Exit
	}
	for i := len(b.loops) - 1; i >= 0; i-- {
		if b.loops[i].label == label.Name {
			return b.loops[i].contTo
		}
	}
	return b.cfg.Exit
}

// finish resolves gotos, prunes unreachable blocks and numbers the rest.
func (b *cfgBuilder) finish() {
	for _, fix := range b.gotoFixes {
		target, ok := b.labelBlocks[fix.label]
		if !ok {
			target = b.cfg.Exit // malformed source; stay safe
		}
		b.edge(fix.from, target)
	}
	reach := map[*Block]bool{b.cfg.Entry: true}
	work := []*Block{b.cfg.Entry}
	for len(work) > 0 {
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range blk.Succs {
			if !reach[s] {
				reach[s] = true
				work = append(work, s)
			}
		}
	}
	kept := b.cfg.Blocks[:0]
	for _, blk := range b.cfg.Blocks {
		if reach[blk] && blk != b.cfg.Exit {
			kept = append(kept, blk)
		}
	}
	kept = append(kept, b.cfg.Exit)
	for i, blk := range kept {
		blk.Index = i
		// Drop edges into pruned blocks (possible when a kept block
		// branched into a region that only returned).
		ss := blk.Succs[:0]
		for _, s := range blk.Succs {
			if reach[s] || s == b.cfg.Exit {
				ss = append(ss, s)
			}
		}
		blk.Succs = ss
	}
	b.cfg.Blocks = kept
}

// isPanicCall reports whether call is the predeclared panic. A syntactic
// check (no types.Info at CFG-build time): anyone shadowing panic in
// this codebase has worse problems than an imprecise CFG.
func isPanicCall(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// FuncBodies yields every function body of the package — declarations
// and function literals alike — with a printable name. Analyses that
// build CFGs use it so nested literals are analyzed as their own
// functions, never as straight-line code of their parent.
func FuncBodies(pkg *Package, fn func(name string, node ast.Node, body *ast.BlockStmt)) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) > 0 {
				name = recvTypeName(fd.Recv.List[0].Type) + "." + name
			}
			fn(name, fd, fd.Body)
			base := name
			i := 0
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					i++
					fn(fmt.Sprintf("%s.func%d", base, i), lit, lit.Body)
				}
				return true
			})
		}
	}
}

// recvTypeName renders a receiver type for diagnostics.
func recvTypeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(t.X)
	case *ast.IndexListExpr:
		return recvTypeName(t.X)
	}
	return "?"
}

// inspectShallow walks n like ast.Inspect but does not descend into
// nested function literals: a FuncLit is a value of the enclosing
// function, and its body belongs to its own CFG.
func inspectShallow(n ast.Node, f func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		return f(m)
	})
}
