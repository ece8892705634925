package lint

import (
	"go/ast"
	"go/types"
)

// poolEscapePkgs are the packages whose hot paths recycle state through
// sync.Pool: the measurement engine's per-worker resolvers, the server's
// pooled request state and the shortest-path trees' bucket queues.
var poolEscapePkgs = []string{
	"routergeo/internal/core",
	"routergeo/internal/geodb/httpapi",
	"routergeo/internal/traceroute",
}

// PoolEscape flags sync.Pool-managed objects that outlive the function
// that got them.
var PoolEscape = &Analyzer{
	Name: "poolescape",
	Doc: "An object obtained from a sync.Pool (internal/core's resolvers, " +
		"httpapi's request state, traceroute's bucket queues) must not outlive the " +
		"handler or sweep that called Get: returning it (or a field of it), " +
		"sending it on a channel, or storing it into a struct field or " +
		"package variable lets it be read after the next Get reuses the " +
		"memory. Get inline at the use site, copy data out, and Put before " +
		"leaving. Alias tracking is single-level (y := x), so keep Get " +
		"results in the variable that received them.",
	Run: runPoolEscape,
}

func runPoolEscape(p *Pass) {
	if !pathInAny(p.Pkg.Path, poolEscapePkgs) {
		return
	}
	info := p.Pkg.Info
	inspectFuncs(p.Pkg, func(_ *ast.File, fn *ast.FuncDecl) {
		tainted := poolTainted(info, fn.Body)
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ReturnStmt:
				for _, res := range s.Results {
					if name, ok := poolDerived(info, res, tainted); ok {
						p.Reportf(res.Pos(),
							"%s holds sync.Pool-managed memory and is returned; the next Get reuses it under the caller — copy the data out and Put before returning", name)
					}
				}
			case *ast.SendStmt:
				if name, ok := poolDerived(info, s.Value, tainted); ok {
					p.Reportf(s.Value.Pos(),
						"%s holds sync.Pool-managed memory and is sent on a channel; the receiver races the next Get for it — send a copy instead", name)
				}
			case *ast.AssignStmt:
				if len(s.Lhs) != len(s.Rhs) {
					return true
				}
				for i, lhs := range s.Lhs {
					kind, ok := escapingStore(info, lhs, tainted)
					if !ok {
						continue
					}
					if name, derived := poolDerived(info, s.Rhs[i], tainted); derived {
						p.Reportf(s.Rhs[i].Pos(),
							"%s holds sync.Pool-managed memory and is stored into a %s; it outlives the Get site there — copy the data out instead", name, kind)
					}
				}
			}
			return true
		})
	})
}

// poolTainted collects the local variables of body bound to a sync.Pool
// Get result: first every direct `x := pool.Get().(*T)` binding, then
// one level of plain aliasing (`y := x`). Deeper chains and flows
// through containers are out of scope — the codebase convention is to
// keep the Get result in the variable that received it.
func poolTainted(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	tainted := map[types.Object]bool{}
	type alias struct{ dst, src types.Object }
	var aliases []alias
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, isID := lhs.(*ast.Ident)
			if !isID {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj == nil {
				continue
			}
			// Only locals become tainted carriers; a package-level var
			// receiving a Get result is itself the escape, not an alias.
			if pkg := obj.Pkg(); pkg != nil && obj.Parent() == pkg.Scope() {
				continue
			}
			if containsPoolGet(info, as.Rhs[i]) {
				tainted[obj] = true
			} else if src := rootIdentObj(info, as.Rhs[i]); src != nil {
				aliases = append(aliases, alias{obj, src})
			}
		}
		return true
	})
	for _, a := range aliases {
		if tainted[a.src] {
			tainted[a.dst] = true
		}
	}
	return tainted
}

// isPoolGet reports whether call is sync.Pool.Get on any receiver.
func isPoolGet(info *types.Info, call *ast.CallExpr) bool {
	recv, name, ok := methodCall(info, call)
	return ok && name == "Get" && namedFrom(recv, "sync", "Pool")
}

// containsPoolGet reports whether any subexpression of e calls
// sync.Pool.Get.
func containsPoolGet(info *types.Info, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isPoolGet(info, call) {
			found = true
		}
		return !found
	})
	return found
}

// rootIdentObj unwraps parens, type assertions and &x down to a bare
// identifier's object; anything else (calls, literals, selectors)
// returns nil so aliasing stays a same-object copy.
func rootIdentObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return info.Uses[v]
		case *ast.ParenExpr:
			e = v.X
		case *ast.TypeAssertExpr:
			e = v.X
		case *ast.UnaryExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// poolDerived reports whether e exposes pool-managed memory: a tainted
// identifier, any selector/index/slice path rooted at one (st.buf is
// the pooled object's memory too), or a direct pool.Get() call. The
// walk stops at other calls — `len(st.buf)` exposes a length, not the
// memory — and returns the root's name for the diagnostic.
func poolDerived(info *types.Info, e ast.Expr, tainted map[types.Object]bool) (string, bool) {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			if obj := info.Uses[v]; obj != nil && tainted[obj] {
				return v.Name, true
			}
			return "", false
		case *ast.ParenExpr:
			e = v.X
		case *ast.TypeAssertExpr:
			e = v.X
		case *ast.UnaryExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		case *ast.CallExpr:
			if isPoolGet(info, v) {
				return "the Get result", true
			}
			return "", false
		default:
			return "", false
		}
	}
}

// escapingStore classifies an assignment target: a store through a
// struct field or into a package-level variable escapes the function;
// locals (including per-worker tables indexed by a local slice) do not.
// Writes back into a pooled object's own fields (st.buf = st.buf[:0])
// are the normal reset pattern and are exempt — the root being tainted
// means nothing new escapes.
func escapingStore(info *types.Info, lhs ast.Expr, tainted map[types.Object]bool) (kind string, ok bool) {
	for {
		switch v := lhs.(type) {
		case *ast.Ident:
			obj := info.Uses[v]
			if obj == nil {
				return "", false
			}
			if tainted[obj] {
				return "", false
			}
			if pkg := obj.Pkg(); pkg != nil && obj.Parent() == pkg.Scope() {
				return "package variable", true
			}
			return "", false
		case *ast.ParenExpr:
			lhs = v.X
		case *ast.StarExpr:
			lhs = v.X
		case *ast.IndexExpr:
			lhs = v.X
		case *ast.SelectorExpr:
			if id, isID := v.X.(*ast.Ident); isID {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					return "package variable", true
				}
			}
			if _, derived := poolDerived(info, v.X, tainted); derived {
				return "", false
			}
			return "struct field", true
		default:
			return "", false
		}
	}
}
