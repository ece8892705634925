package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// goroPkgs: the packages that launch goroutines as part of the serving
// and measurement machinery. Same blast radius as atomicmix.
var goroPkgs = atomicMixPkgs

// GoroHygiene vets every `go` statement in the concurrency packages.
var GoroHygiene = &Analyzer{
	Name: "gorohygiene",
	Doc: "Goroutines launched in internal/core, internal/geodb/httpapi, " +
		"internal/obs and internal/par must have a visible termination edge — a " +
		"context.Context they observe, a channel receive/range/select that " +
		"ends when the sender closes, or a sync.WaitGroup they signal — so " +
		"no sweep or request leaves an orphan running. Goroutine closures " +
		"must also not capture sync.Pool-derived values (the pool may hand " +
		"the buffer to another goroutine after Put) and must not capture " +
		"variables that the surrounding loop keeps mutating (every " +
		"iteration's goroutine would observe the last value).",
	Run: runGoroHygiene,
}

func runGoroHygiene(p *Pass) {
	if !pathInAny(p.Pkg.Path, goroPkgs) {
		return
	}
	info := p.Pkg.Info
	inspectFuncs(p.Pkg, func(file *ast.File, fd *ast.FuncDecl) {
		if fd.Body == nil {
			return
		}
		tainted := poolTainted(info, fd.Body)

		// Walk with a parent stack so each `go` statement knows its
		// enclosing loops (for the shared-capture check).
		var stack []ast.Node
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			checkGoStmt(p, info, gs, stack, tainted)
			return true
		})
	})
}

func checkGoStmt(p *Pass, info *types.Info, gs *ast.GoStmt, stack []ast.Node, tainted map[types.Object]bool) {
	body := goroutineBody(p, info, gs)
	// Termination edge: visible in the launched body, or a context the
	// callee receives as an argument (the callee is trusted to honor it).
	if !callHasContextArg(info, gs.Call) {
		if body == nil {
			p.Reportf(gs.Pos(),
				"goroutine launches a function with no body in this package and no context.Context argument — no visible termination edge; pass a ctx or launch a local function that has one")
		} else if !hasTerminationEdge(info, body) {
			p.Reportf(gs.Pos(),
				"goroutine has no termination edge: no context.Context observed, no channel receive/range/select, no wg.Done() — it can outlive the sweep or request that launched it")
		}
	}

	// Capture checks apply to closures only: a named function cannot
	// capture the launcher's locals.
	lit, ok := gs.Call.Fun.(*ast.FuncLit)
	if !ok {
		return
	}
	for _, fv := range freeVars(info, lit) {
		if tainted[fv.obj] {
			p.Reportf(fv.pos,
				"goroutine closure captures %q, which comes from a sync.Pool Get — after the pool reclaims it another goroutine may be writing the same backing array", fv.obj.Name())
			continue
		}
		if loop := sharedLoopCapture(info, fv.obj, gs, stack); loop != token.NoPos {
			p.Reportf(fv.pos,
				"goroutine closure captures %q, declared before the loop at %s and reassigned inside it — every iteration's goroutine shares one variable and races the next write; pass it as an argument instead", fv.obj.Name(), p.Fset.Position(loop))
		}
	}
}

// goroutineBody resolves the body the `go` statement runs: the literal
// itself, or the body of a same-package function/method. Nil when the
// target is outside the package (stdlib, another layer).
func goroutineBody(p *Pass, info *types.Info, gs *ast.GoStmt) *ast.BlockStmt {
	switch fun := gs.Call.Fun.(type) {
	case *ast.FuncLit:
		return fun.Body
	case *ast.Ident:
		return declBodyFor(p, info.Uses[fun])
	case *ast.SelectorExpr:
		return declBodyFor(p, info.Uses[fun.Sel])
	}
	return nil
}

// declBodyFor finds the FuncDecl body of obj in the package under
// analysis.
func declBodyFor(p *Pass, obj types.Object) *ast.BlockStmt {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg() != p.Pkg.Types {
		return nil
	}
	for _, f := range p.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if p.Pkg.Info.Defs[fd.Name] == obj {
				return fd.Body
			}
		}
	}
	return nil
}

// callHasContextArg reports whether any argument of the launch call is
// a context.Context.
func callHasContextArg(info *types.Info, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if tv, ok := info.Types[arg]; ok && tv.Type != nil && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

// hasTerminationEdge reports whether the goroutine body contains a
// construct that lets it observe shutdown: a context.Context value, a
// channel receive (<-ch), a range over a channel, a select, or a
// sync.WaitGroup Done (the launcher waits for it, so the goroutine's
// lifetime is bounded by the launcher's).
func hasTerminationEdge(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch v := n.(type) {
		case *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[v.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.Ident:
			if obj := info.Uses[v]; obj != nil && isContextType(obj.Type()) {
				found = true
			}
		case *ast.CallExpr:
			if recv, name, ok := methodCall(info, v); ok && name == "Done" &&
				namedFrom(recv, "sync", "WaitGroup") {
				found = true
			}
		}
		return !found
	})
	return found
}

// freeVar is a reference inside a closure to a variable declared
// outside it.
type freeVar struct {
	obj types.Object
	pos token.Pos // first referencing identifier inside the closure
}

// freeVars lists the local variables the literal captures by reference:
// identifiers used inside whose declaration lies outside the literal.
// Package-level objects are not captures.
func freeVars(info *types.Info, lit *ast.FuncLit) []freeVar {
	seen := map[types.Object]bool{}
	var out []freeVar
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		v, isVar := obj.(*types.Var)
		if !isVar || v.IsField() || seen[obj] {
			return true
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
			return true // declared inside the literal (params included)
		}
		if obj.Parent() == nil || obj.Pkg() == nil ||
			obj.Parent() == obj.Pkg().Scope() {
			return true // package-level, not a stack capture
		}
		seen[obj] = true
		out = append(out, freeVar{obj: obj, pos: id.Pos()})
		return true
	})
	return out
}

// sharedLoopCapture reports (by returning the loop's position) whether
// obj is declared OUTSIDE one of the loops enclosing the go statement
// yet assigned INSIDE that loop outside the goroutine itself. Such a
// variable is one shared cell: each iteration's goroutine races the
// next iteration's write. Go ≥1.22 makes loop iteration variables
// per-iteration, so those never trip this — only pre-loop declarations
// mutated in the loop body do.
func sharedLoopCapture(info *types.Info, obj types.Object, gs *ast.GoStmt, stack []ast.Node) token.Pos {
	for _, enc := range stack {
		var loopBody *ast.BlockStmt
		var loopPos token.Pos
		switch l := enc.(type) {
		case *ast.ForStmt:
			loopBody, loopPos = l.Body, l.Pos()
		case *ast.RangeStmt:
			loopBody, loopPos = l.Body, l.Pos()
		default:
			continue
		}
		if obj.Pos() >= loopPos && obj.Pos() <= loopBody.End() {
			continue // declared by/inside this loop: per-iteration since go 1.22
		}
		if assignedOutsideGo(info, loopBody, obj, gs) {
			return loopPos
		}
	}
	return token.NoPos
}

// assignedOutsideGo reports whether obj is assigned (or ++/--/&-taken
// via assignment) anywhere in body other than inside the go statement
// under scrutiny.
func assignedOutsideGo(info *types.Info, body *ast.BlockStmt, obj types.Object, gs *ast.GoStmt) bool {
	hit := false
	ast.Inspect(body, func(n ast.Node) bool {
		if hit || n == gs {
			return false
		}
		switch v := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					if info.Uses[id] == obj || info.Defs[id] == obj {
						hit = true
					}
				}
			}
		case *ast.IncDecStmt:
			if id, ok := v.X.(*ast.Ident); ok && info.Uses[id] == obj {
				hit = true
			}
		}
		return !hit
	})
	return hit
}
