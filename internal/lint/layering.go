package lint

import (
	"strconv"
)

// layerRule forbids packages under from from importing anything under
// any of to, except paths under an allow prefix (a package's own
// subtree is always allowed).
type layerRule struct {
	from  string
	to    []string
	allow []string
	why   string
}

// layerRules is the explicit import DAG. The leaves (stats, ipx) stay
// free of observability and database concerns so they can be reasoned
// about — and benchmarked — in isolation; obs and the par engine sit
// outside the domain entirely; and cmd binaries are composition roots,
// never libraries.
var layerRules = []layerRule{
	{
		from: "routergeo/internal/stats",
		to:   []string{"routergeo/internal/obs", "routergeo/internal/geodb"},
		why:  "stats is a leaf: pure numeric machinery with no logging or database knowledge",
	},
	{
		from: "routergeo/internal/ipx",
		to:   []string{"routergeo/internal/obs", "routergeo/internal/geodb"},
		why:  "ipx is a leaf: the lookup index must not depend on observability or database layers",
	},
	{
		from:  "routergeo/internal/obs",
		to:    []string{"routergeo/internal"},
		allow: []string{"routergeo/internal/obs"},
		why:   "obs is infrastructure: it imports nothing internal so every package can import it",
	},
	{
		from:  "routergeo/internal/par",
		to:    []string{"routergeo/internal"},
		allow: []string{"routergeo/internal/par"},
		why:   "par is the one parallel engine: it imports nothing internal so every layer, ark and core included, can fan out on it",
	},
	{
		from: "routergeo/internal/geodb/snapshot",
		to: []string{
			"routergeo/internal/obs",
			"routergeo/internal/geodb/httpapi",
		},
		why: "snapshot sits below the serving layer: the format must load in any binary with no observability or HTTP baggage",
	},
	{
		from: "routergeo",
		to:   []string{"routergeo/cmd"},
		why:  "cmd packages are binaries (composition roots), never imported",
	},
}

// Layering enforces the explicit import DAG between the module's
// packages.
var Layering = &Analyzer{
	Name: "layering",
	Doc: "Enforces the module's import DAG: internal/stats and " +
		"internal/ipx may not import internal/obs or internal/geodb, " +
		"internal/obs and internal/par import nothing internal, " +
		"internal/geodb/snapshot may not import internal/obs or the " +
		"httpapi serving layer, and no package may import anything " +
		"under cmd/.",
	Run: runLayering,
}

func runLayering(p *Pass) {
	for _, rule := range layerRules {
		if !pathIn(p.Pkg.Path, rule.from) {
			continue
		}
		for _, f := range p.Pkg.Files {
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if violates(p.Pkg.Path, path, rule) {
					p.Reportf(imp.Pos(), "%s may not import %s: %s", p.Pkg.Path, path, rule.why)
				}
			}
		}
	}
}

// violates reports whether importing path from pkgPath breaks rule.
func violates(pkgPath, path string, rule layerRule) bool {
	if pathIn(path, pkgPath) || !pathInAny(path, rule.to) {
		return false
	}
	for _, a := range rule.allow {
		if pathIn(path, a) {
			return false
		}
	}
	return true
}
