package lint

import (
	"go/ast"
	"go/types"
)

// atomicMixPkgs are the packages whose structs carry atomic fields on
// purpose: the serving tier's generation refcounts and drain flags, the
// observability registry's counters, and the parallel engine's
// work-stealing cursor. Everything in them that is touched through
// sync/atomic must be touched through sync/atomic ONLY — one plain read
// beside an atomic write is a data race the race detector only catches
// if a test happens to interleave it.
var atomicMixPkgs = []string{
	"routergeo/internal/core",
	"routergeo/internal/geodb/httpapi",
	"routergeo/internal/obs",
	"routergeo/internal/par",
}

// AtomicMix flags struct fields that mix atomic and plain access.
var AtomicMix = &Analyzer{
	Name: "atomicmix",
	Doc: "In the concurrency packages (internal/core, internal/geodb/httpapi, " +
		"internal/obs, internal/par) a struct field accessed through sync/atomic — either a " +
		"typed atomic (atomic.Int64, atomic.Bool, atomic.Pointer, ...) or a " +
		"plain integer passed to atomic.AddInt64/LoadInt64/... — must never " +
		"be read or written plainly outside its type's constructor: the " +
		"racing plain access tears the happens-before edges the atomic ops " +
		"establish. Typed atomic fields may only appear as method-call " +
		"receivers; old-style fields only as &x.f arguments to sync/atomic " +
		"functions.",
	Run: runAtomicMix,
}

// atomicTypeNames are the typed atomics of sync/atomic. A field of one
// of these types is an atomic field by construction.
var atomicTypeNames = map[string]bool{
	"Bool": true, "Int32": true, "Int64": true,
	"Uint32": true, "Uint64": true, "Uintptr": true,
	"Pointer": true, "Value": true,
}

// isAtomicType reports whether t is one of sync/atomic's typed atomics.
func isAtomicType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil &&
		obj.Pkg().Path() == "sync/atomic" && atomicTypeNames[obj.Name()]
}

func runAtomicMix(p *Pass) {
	if !pathInAny(p.Pkg.Path, atomicMixPkgs) {
		return
	}
	info := p.Pkg.Info

	// Pass 1: collect the old-style atomic fields — every field object
	// that appears as &x.f in a sync/atomic function call anywhere in
	// the package.
	oldStyle := map[types.Object]bool{}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkgPath, _, ok := pkgFuncCall(info, call)
			if !ok || pkgPath != "sync/atomic" {
				return true
			}
			for _, arg := range call.Args {
				un, ok := arg.(*ast.UnaryExpr)
				if !ok {
					continue
				}
				if fld := fieldObj(info, un.X); fld != nil {
					oldStyle[fld] = true
				}
			}
			return true
		})
	}

	// Pass 2: flag the violations. For every selector resolving to an
	// atomic field, the enclosing expression decides legality:
	//   typed field  → must be the receiver of a method call (x.f.Load()).
	//   old-style    → must be &x.f inside a sync/atomic call.
	// Constructors (functions returning the enclosing struct type) and
	// composite-literal initialization are exempt — before the value is
	// shared there is nothing to race with.
	for _, f := range p.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			var stack []ast.Node
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fld := fieldObj(info, sel)
				if fld == nil {
					return true
				}
				typed := isAtomicType(fld.Type())
				if !typed && !oldStyle[fld] {
					return true
				}
				if constructorFor(info, fd, fld) {
					return true
				}
				if typed {
					if !isMethodReceiverUse(stack) {
						p.Reportf(sel.Pos(),
							"atomic field %s used without an atomic method: copying or addressing a typed atomic races its Load/Store sites — call its methods instead", fld.Name())
					}
					return true
				}
				if !isAtomicCallOperand(info, stack) {
					p.Reportf(sel.Pos(),
						"field %s is accessed via sync/atomic elsewhere in this package but read/written plainly here — a plain access races the atomic ones; use atomic.Load/Store everywhere or neither", fld.Name())
				}
				return true
			})
		}
	}
}

// fieldObj resolves e to a struct field object (a *types.Var with
// IsField), unwrapping parens; nil otherwise.
func fieldObj(info *types.Info, e ast.Expr) *types.Var {
	for {
		if pe, ok := e.(*ast.ParenExpr); ok {
			e = pe.X
			continue
		}
		break
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s, ok := info.Selections[sel]; ok {
		if v, ok := s.Obj().(*types.Var); ok && v.IsField() {
			return v
		}
		return nil
	}
	if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
		return v
	}
	return nil
}

// isMethodReceiverUse reports whether the selector at the top of stack
// is the X of an enclosing method-call selector: stack ends
// [... CallExpr SelectorExpr(ourSel.Method) ourSel]. That is the only
// legal appearance of a typed atomic field.
func isMethodReceiverUse(stack []ast.Node) bool {
	if len(stack) < 3 {
		return false
	}
	parent, ok := stack[len(stack)-2].(*ast.SelectorExpr)
	if !ok || parent.X != stack[len(stack)-1] {
		return false
	}
	call, ok := stack[len(stack)-3].(*ast.CallExpr)
	return ok && call.Fun == parent
}

// isAtomicCallOperand reports whether the selector at the top of stack
// appears as &sel passed directly to a sync/atomic function:
// stack ends [... CallExpr UnaryExpr(&) ourSel].
func isAtomicCallOperand(info *types.Info, stack []ast.Node) bool {
	if len(stack) < 3 {
		return false
	}
	un, ok := stack[len(stack)-2].(*ast.UnaryExpr)
	if !ok || un.X != stack[len(stack)-1] {
		return false
	}
	call, ok := stack[len(stack)-3].(*ast.CallExpr)
	if !ok {
		return false
	}
	pkgPath, _, ok := pkgFuncCall(info, call)
	return ok && pkgPath == "sync/atomic"
}

// constructorFor reports whether fd is a constructor of the struct
// owning fld: a function (not method) with the owning named type — or a
// pointer to it — among its results. Plain initialization before the
// value escapes the constructor cannot race.
func constructorFor(info *types.Info, fd *ast.FuncDecl, fld *types.Var) bool {
	if fd.Type.Results == nil {
		return false
	}
	owner := fieldOwner(fld)
	if owner == nil {
		return false
	}
	for _, r := range fd.Type.Results.List {
		tv, ok := info.Types[r.Type]
		if !ok || tv.Type == nil {
			continue
		}
		t := tv.Type
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj() == owner {
			return true
		}
	}
	return false
}

// fieldOwner finds the named type whose struct declares fld, by
// scanning the field's package scope. Fields of anonymous structs
// return nil (no constructor exemption).
func fieldOwner(fld *types.Var) *types.TypeName {
	pkg := fld.Pkg()
	if pkg == nil {
		return nil
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == fld {
				return tn
			}
		}
	}
	return nil
}
