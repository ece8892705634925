package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotAlloc flags allocation-introducing constructs inside functions
// annotated //geolint:hotpath. The annotation marks the zero-alloc
// serving path (the /v2/lookup fast handler chain) and the sweep kernel
// (par.RunBlocks, the batch resolver): code whose benchmarks assert 0
// allocs/op, where one innocent-looking fmt call or un-presized append
// silently reintroduces GC pressure that benchcompare only catches
// after the fact.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "Functions annotated //geolint:hotpath must not contain " +
		"allocation-introducing constructs: fmt.* calls, non-constant " +
		"string concatenation, closures, map literals or make(map), " +
		"append to a slice that was not pre-sized (make with capacity, " +
		"growN, or a reslice of existing backing), boxing a concrete " +
		"value into an interface parameter, or string<->[]byte " +
		"conversions outside the compiler's no-alloc positions (switch " +
		"tags, ==/!= operands, map indexes). Unavoidable allocations on " +
		"cold sub-paths (error formatting on malformed input) carry a " +
		"//lint:ignore explaining why the path is cold.",
	Run: runHotAlloc,
}

// hotpathDirective is the magic doc-comment marking a function as part
// of the zero-alloc hot path.
const hotpathDirective = "//geolint:hotpath"

// isHotpath reports whether the function declaration carries the
// //geolint:hotpath annotation in its doc comment.
func isHotpath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, hotpathDirective) {
			return true
		}
	}
	return false
}

func runHotAlloc(p *Pass) {
	info := p.Pkg.Info
	inspectFuncs(p.Pkg, func(file *ast.File, fd *ast.FuncDecl) {
		if fd.Body == nil || !isHotpath(fd) {
			return
		}
		ha := &hotallocWalker{
			pass:     p,
			info:     info,
			presized: map[string]bool{},
		}
		// Receiver/parameter slices arrive with whatever backing the
		// caller sized; appending to them is the caller's contract, not
		// a fresh allocation decision made here.
		for _, fl := range paramFields(fd) {
			for _, name := range fl.Names {
				ha.presized[name.Name] = true
			}
		}
		ha.walk(fd.Body)
	})
}

// paramFields returns receiver + parameter fields of a declaration.
func paramFields(fd *ast.FuncDecl) []*ast.Field {
	var out []*ast.Field
	if fd.Recv != nil {
		out = append(out, fd.Recv.List...)
	}
	if fd.Type.Params != nil {
		out = append(out, fd.Type.Params.List...)
	}
	return out
}

type hotallocWalker struct {
	pass *Pass
	info *types.Info
	// presized tracks slice variables (by exprPath) whose backing was
	// explicitly sized: make with length/capacity, growN, a reslice of
	// existing backing, or an append chain rooted at one of those.
	// ast.Inspect's pre-order matches source order closely enough for
	// this straight-line heuristic.
	presized map[string]bool
	stack    []ast.Node
}

func (ha *hotallocWalker) walk(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			ha.stack = ha.stack[:len(ha.stack)-1]
			return true
		}
		ha.stack = append(ha.stack, n)
		switch v := n.(type) {
		case *ast.FuncLit:
			ha.pass.Reportf(v.Pos(),
				"closure in hot path: the func literal (and every variable it captures) allocates; hoist it to a named function or method")
			// Don't descend: the closure's own body is moot once the
			// closure itself is flagged. Returning false suppresses the
			// closing nil visit, so pop here.
			ha.stack = ha.stack[:len(ha.stack)-1]
			return false
		case *ast.AssignStmt:
			ha.trackAssign(v)
			if v.Tok == token.ADD_ASSIGN && ha.isStringExpr(v.Lhs[0]) {
				ha.pass.Reportf(v.Pos(),
					"string += in hot path reallocates the whole string each time; use a pre-sized []byte and append")
			}
		case *ast.ValueSpec:
			ha.trackValueSpec(v)
		case *ast.BinaryExpr:
			if v.Op == token.ADD && ha.isStringExpr(v) && !ha.isConst(v) {
				ha.pass.Reportf(v.Pos(),
					"non-constant string concatenation in hot path allocates; use a pre-sized []byte and append, or strconv.Append*")
			}
		case *ast.CompositeLit:
			if tv, ok := ha.info.Types[v]; ok && tv.Type != nil {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					ha.pass.Reportf(v.Pos(),
						"map literal in hot path allocates a new hash table per call; hoist it to a package-level var or reuse via the state pool")
				}
			}
		case *ast.CallExpr:
			ha.checkCall(v)
		}
		return true
	})
}

func (ha *hotallocWalker) checkCall(call *ast.CallExpr) {
	if pkgPath, fn, ok := pkgFuncCall(ha.info, call); ok && pkgPath == "fmt" {
		ha.pass.Reportf(call.Pos(),
			"fmt.%s in hot path: fmt boxes every operand and allocates its result; use strconv.Append* onto a pooled buffer", fn)
		return
	}
	if builtinCall(ha.info, call, "make") {
		if tv, ok := ha.info.Types[call]; ok && tv.Type != nil {
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				ha.pass.Reportf(call.Pos(),
					"make(map) in hot path allocates a new hash table per call; hoist or pool it")
			}
		}
		return
	}
	if builtinCall(ha.info, call, "append") && len(call.Args) > 0 {
		if !ha.presizedExpr(call.Args[0]) {
			ha.pass.Reportf(call.Pos(),
				"append to a slice without pre-sized backing may grow-allocate on the hot path; make it with capacity, growN it, or reslice a pooled buffer first")
		}
		return
	}
	ha.checkConversion(call)
	ha.checkBoxing(call)
}

// checkConversion flags string([]byte) / []byte(string) conversions,
// which copy, except in the positions the compiler guarantees not to
// allocate: switch tags, ==/!= comparison operands, and map indexes.
func (ha *hotallocWalker) checkConversion(call *ast.CallExpr) {
	tvFun, ok := ha.info.Types[call.Fun]
	if !ok || !tvFun.IsType() || len(call.Args) != 1 {
		return
	}
	to := tvFun.Type
	from := ha.info.Types[call.Args[0]].Type
	if from == nil {
		return
	}
	toStr, fromBytes := isStringType(to), isByteSlice(from)
	toBytes, fromStr := isByteSlice(to), isStringType(from)
	if !(toStr && fromBytes) && !(toBytes && fromStr) {
		return
	}
	if toStr && ha.noAllocStringPosition(call) {
		return
	}
	if toStr {
		ha.pass.Reportf(call.Pos(),
			"string([]byte) conversion copies on the hot path; keep the []byte, or move the conversion into a switch tag / == operand / map index where the compiler elides the copy")
	} else {
		ha.pass.Reportf(call.Pos(),
			"[]byte(string) conversion copies on the hot path; keep the data as []byte end to end")
	}
}

// noAllocStringPosition reports whether the string(...) conversion at
// the top of the walker stack sits in a position the compiler compiles
// without allocating: a switch tag, an operand of == / != / < / >, or a
// map index.
func (ha *hotallocWalker) noAllocStringPosition(call *ast.CallExpr) bool {
	if len(ha.stack) < 2 {
		return false
	}
	switch parent := ha.stack[len(ha.stack)-2].(type) {
	case *ast.SwitchStmt:
		return parent.Tag == call
	case *ast.BinaryExpr:
		switch parent.Op {
		case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
			return true
		}
	case *ast.IndexExpr:
		if parent.Index != call {
			return false
		}
		tv, ok := ha.info.Types[parent.X]
		if !ok || tv.Type == nil {
			return false
		}
		_, isMap := tv.Type.Underlying().(*types.Map)
		return isMap
	}
	return false
}

// checkBoxing flags concrete values passed to interface parameters:
// the conversion heap-allocates unless the value is pointer-shaped and
// already escapes, and the hot path shouldn't gamble on that.
func (ha *hotallocWalker) checkBoxing(call *ast.CallExpr) {
	tvFun, ok := ha.info.Types[call.Fun]
	if !ok || tvFun.IsType() || tvFun.Type == nil {
		return
	}
	sig, ok := tvFun.Type.(*types.Signature)
	if !ok {
		return
	}
	// go/types records call-site signatures for builtins too; panic's
	// argument does box, but a panicking path is cold by definition.
	if id, ok := astUnparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := ha.info.Uses[id].(*types.Builtin); isBuiltin {
			return
		}
	}
	for i, arg := range call.Args {
		pt := paramTypeAt(sig, i, call.Ellipsis != token.NoPos)
		if pt == nil {
			continue
		}
		iface, isIface := pt.Underlying().(*types.Interface)
		if !isIface || iface == nil {
			continue
		}
		at := ha.info.Types[arg].Type
		if at == nil || ha.info.Types[arg].IsNil() {
			continue
		}
		if _, argIface := at.Underlying().(*types.Interface); argIface {
			continue // interface to interface: no new box
		}
		if zeroSized(at) {
			continue // struct{}-like values box to a static sentinel
		}
		ha.pass.Reportf(arg.Pos(),
			"passing %s into an interface parameter boxes it (heap-allocates) on the hot path; use a concrete-typed helper or a pooled value", types.TypeString(at, nil))
	}
}

// paramTypeAt returns the declared type of argument i of sig, resolving
// variadic parameters to their element type. Returns nil for a spread
// call's final argument (no boxing happens: the slice is passed as-is).
func paramTypeAt(sig *types.Signature, i int, spread bool) types.Type {
	n := sig.Params().Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 {
		if spread {
			return nil
		}
		if sl, ok := sig.Params().At(n - 1).Type().(*types.Slice); ok {
			return sl.Elem()
		}
		return nil
	}
	if i >= n {
		return nil
	}
	return sig.Params().At(i).Type()
}

// --- presized-slice bookkeeping ---------------------------------------

func (ha *hotallocWalker) trackAssign(as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		path, ok := exprPath(lhs)
		if !ok {
			continue
		}
		if ha.presizedExpr(as.Rhs[i]) {
			ha.presized[path] = true
		} else {
			delete(ha.presized, path)
		}
	}
}

func (ha *hotallocWalker) trackValueSpec(vs *ast.ValueSpec) {
	for i, name := range vs.Names {
		if i < len(vs.Values) && ha.presizedExpr(vs.Values[i]) {
			ha.presized[name.Name] = true
		}
	}
}

// presizedExpr reports whether e denotes a slice with explicitly sized
// backing: a tracked variable, a reslice of anything, make with an
// explicit length, a growN call, or an append rooted at one of those.
func (ha *hotallocWalker) presizedExpr(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.ParenExpr:
		return ha.presizedExpr(v.X)
	case *ast.SliceExpr:
		return true // reslicing existing backing
	case *ast.CallExpr:
		if builtinCall(ha.info, v, "make") && len(v.Args) >= 2 {
			return true
		}
		if builtinCall(ha.info, v, "append") && len(v.Args) > 0 {
			return ha.presizedExpr(v.Args[0])
		}
		if id, ok := v.Fun.(*ast.Ident); ok && id.Name == "growN" {
			return true
		}
		if sel, ok := v.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "growN" {
			return true
		}
		return false
	default:
		if path, ok := exprPath(e); ok {
			return ha.presized[path]
		}
	}
	return false
}

// astUnparen strips any parenthesis layers around e.
func astUnparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// --- small type predicates --------------------------------------------

func (ha *hotallocWalker) isStringExpr(e ast.Expr) bool {
	tv, ok := ha.info.Types[e]
	return ok && tv.Type != nil && isStringType(tv.Type)
}

func (ha *hotallocWalker) isConst(e ast.Expr) bool {
	tv, ok := ha.info.Types[e]
	return ok && tv.Value != nil
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// zeroSized reports whether values of t occupy no storage (empty
// structs, zero-length arrays): boxing one costs nothing.
func zeroSized(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if !zeroSized(u.Field(i).Type()) {
				return false
			}
		}
		return true
	case *types.Array:
		return u.Len() == 0 || zeroSized(u.Elem())
	}
	return false
}
