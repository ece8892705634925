package lint

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// loadFixture loads testdata/src/<name> under the given synthetic
// import path, sharing one loader per test so the real module packages
// fixtures import are only type-checked once.
func loadFixture(t *testing.T, l *Loader, name, asPath string) *Package {
	t.Helper()
	pkg, err := loadAs(l, filepath.Join("testdata", "src", name), asPath)
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	return pkg
}

// loadAs parses and type-checks the single directory dir as if its
// import path were asPath, so path-scoped analyzers run over fixture
// packages living under testdata.
func loadAs(l *Loader, dir, asPath string) (*Package, error) {
	if p, ok := l.pkgs[asPath]; ok {
		return p, nil
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return l.check(asPath, abs)
}

func newTestLoader(t *testing.T) *Loader {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	return l
}

// collectWants scans a fixture's comments for "want:<rule>" markers and
// returns the expected findings as "file.go:line:rule" keys.
func collectWants(fset *token.FileSet, pkg *Package) map[string]int {
	wants := map[string]int{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, field := range strings.Fields(c.Text) {
					rule, ok := strings.CutPrefix(field, "want:")
					if !ok {
						continue
					}
					pos := fset.Position(c.Pos())
					wants[fmt.Sprintf("%s:%d:%s", filepath.Base(pos.Filename), pos.Line, rule)]++
				}
			}
		}
	}
	return wants
}

// findingKeys maps findings onto the same key space as collectWants.
func findingKeys(fs []Finding) map[string]int {
	got := map[string]int{}
	for _, f := range fs {
		got[fmt.Sprintf("%s:%d:%s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Rule)]++
	}
	return got
}

// checkFixture runs the analyzers over one fixture and diffs actual
// findings against the want markers.
func checkFixture(t *testing.T, l *Loader, fixture, asPath string, analyzers []*Analyzer) {
	t.Helper()
	pkg := loadFixture(t, l, fixture, asPath)
	got := findingKeys(Run([]*Package{pkg}, l.Fset, analyzers))
	want := collectWants(l.Fset, pkg)
	keys := map[string]bool{}
	for k := range got {
		keys[k] = true
	}
	for k := range want {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		if got[k] != want[k] {
			t.Errorf("%s (as %s): finding %s: got %d, want %d", fixture, asPath, k, got[k], want[k])
		}
	}
}

func TestDeterminismFixture(t *testing.T) {
	l := newTestLoader(t)
	checkFixture(t, l, "fixdet", "routergeo/internal/core/fixdet", []*Analyzer{Determinism})
}

func TestDeterminismOutOfScope(t *testing.T) {
	l := newTestLoader(t)
	pkg := loadFixture(t, l, "fixdet", "routergeo/internal/netsim/fixdet")
	if fs := Run([]*Package{pkg}, l.Fset, []*Analyzer{Determinism}); len(fs) != 0 {
		t.Fatalf("determinism fired outside its packages: %v", fs)
	}
}

func TestMapOrderFixture(t *testing.T) {
	l := newTestLoader(t)
	checkFixture(t, l, "fixmap", "routergeo/internal/experiments/fixmap", []*Analyzer{MapOrder})
}

func TestCtxFirstFixture(t *testing.T) {
	l := newTestLoader(t)
	checkFixture(t, l, "fixctx", "routergeo/internal/ark/fixctx", []*Analyzer{CtxFirst})
}

func TestCtxFirstOutOfScope(t *testing.T) {
	l := newTestLoader(t)
	pkg := loadFixture(t, l, "fixctx", "routergeo/internal/geodb/fixctx")
	if fs := Run([]*Package{pkg}, l.Fset, []*Analyzer{CtxFirst}); len(fs) != 0 {
		t.Fatalf("ctxfirst fired outside its packages: %v", fs)
	}
}

// TestCtxFirstHTTPAPIScope pins the PR 5 scope extension: the HTTP
// client package is covered (minting a context there made remote
// lookups uncancellable), while its parent internal/geodb — checked by
// TestCtxFirstOutOfScope above — stays out.
func TestCtxFirstHTTPAPIScope(t *testing.T) {
	l := newTestLoader(t)
	checkFixture(t, l, "fixctx", "routergeo/internal/geodb/httpapi/fixctx", []*Analyzer{CtxFirst})
}

func TestStdlibOnlyFixture(t *testing.T) {
	l := newTestLoader(t)
	checkFixture(t, l, "fixdeps", "routergeo/internal/hints/fixdeps", []*Analyzer{StdlibOnly})
}

func TestLayeringFixture(t *testing.T) {
	l := newTestLoader(t)
	checkFixture(t, l, "fixlayer", "routergeo/internal/stats/fixlayer", []*Analyzer{Layering})
}

// TestLayeringSnapshotFixture pins the snapshot-layer rule: loaded as a
// snapshot subpackage, importing obs or httpapi is flagged while the
// geodb import (the type snapshot decodes into) passes.
func TestLayeringSnapshotFixture(t *testing.T) {
	l := newTestLoader(t)
	checkFixture(t, l, "fixsnaplayer", "routergeo/internal/geodb/snapshot/fixsnaplayer", []*Analyzer{Layering})
}

// TestLayeringSnapshotOutOfScope pins that the snapshot rule does not
// leak upward: the same fixture loaded as an httpapi subpackage (which
// legitimately imports obs and lives in the serving layer) stays clean.
func TestLayeringSnapshotOutOfScope(t *testing.T) {
	l := newTestLoader(t)
	pkg := loadFixture(t, l, "fixsnaplayer", "routergeo/internal/geodb/httpapi/fixsnaplayer")
	if fs := Run([]*Package{pkg}, l.Fset, []*Analyzer{Layering}); len(fs) != 0 {
		t.Fatalf("snapshot layering rule fired outside its subtree: %v", fs)
	}
}

func TestLayeringObsSubtree(t *testing.T) {
	l := newTestLoader(t)
	pkg := loadFixture(t, l, "layerobs", "routergeo/internal/obs/layerobs")
	fs := Run([]*Package{pkg}, l.Fset, []*Analyzer{Layering})
	if len(fs) != 1 {
		t.Fatalf("want exactly the geodb import flagged, got %v", fs)
	}
	if !strings.Contains(fs[0].Msg, "routergeo/internal/geodb") {
		t.Fatalf("flagged the wrong import: %v", fs[0])
	}
}

func TestPoolEscapeFixture(t *testing.T) {
	l := newTestLoader(t)
	checkFixture(t, l, "fixpool", "routergeo/internal/geodb/httpapi/fixpool", []*Analyzer{PoolEscape})
}

// TestPoolEscapeCoreScope pins that the rule also covers the
// measurement engine's pools.
func TestPoolEscapeCoreScope(t *testing.T) {
	l := newTestLoader(t)
	checkFixture(t, l, "fixpool", "routergeo/internal/core/fixpool", []*Analyzer{PoolEscape})
}

// TestPoolEscapeTracerouteScope pins that the rule also covers the
// shortest-path trees' bucket pool.
func TestPoolEscapeTracerouteScope(t *testing.T) {
	l := newTestLoader(t)
	checkFixture(t, l, "fixpool", "routergeo/internal/traceroute/fixpool", []*Analyzer{PoolEscape})
}

func TestPoolEscapeOutOfScope(t *testing.T) {
	l := newTestLoader(t)
	pkg := loadFixture(t, l, "fixpool", "routergeo/internal/stats/fixpool")
	if fs := Run([]*Package{pkg}, l.Fset, []*Analyzer{PoolEscape}); len(fs) != 0 {
		t.Fatalf("poolescape fired outside its packages: %v", fs)
	}
}

func TestSlogKeysFixture(t *testing.T) {
	l := newTestLoader(t)
	checkFixture(t, l, "fixslog", "routergeo/internal/geodb/fixslog", []*Analyzer{SlogKeys})
}

func TestSlogKeysAllowsPrintInCmd(t *testing.T) {
	l := newTestLoader(t)
	pkg := loadFixture(t, l, "slogcmd", "routergeo/cmd/slogcmd")
	if fs := Run([]*Package{pkg}, l.Fset, []*Analyzer{SlogKeys}); len(fs) != 0 {
		t.Fatalf("fmt.Println must be allowed under cmd/: %v", fs)
	}
}

func TestByName(t *testing.T) {
	sel, _, ok := ByName([]string{"maporder", "determinism"})
	if !ok || len(sel) != 2 || sel[0].Name != "maporder" || sel[1].Name != "determinism" {
		t.Fatalf("ByName selection broken: %v %v", sel, ok)
	}
	if _, bad, ok := ByName([]string{"nosuchrule"}); ok || bad != "nosuchrule" {
		t.Fatalf("ByName must reject unknown rules, got ok=%v bad=%q", ok, bad)
	}
}

func TestAnalyzersHaveDocs(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incomplete", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}

// TestParScope pins that the rules guarding the parallel engine follow
// it into internal/par: determinism and atomicmix fire there as they do
// in core, and the layering rule flags every internal import outside
// par's own subtree.
func TestParScope(t *testing.T) {
	l := newTestLoader(t)
	checkFixture(t, l, "fixdet", "routergeo/internal/par/fixdet", []*Analyzer{Determinism})
	checkFixture(t, l, "fixatomic", "routergeo/internal/par/fixatomic", []*Analyzer{AtomicMix})
	pkg := loadFixture(t, l, "layerobs", "routergeo/internal/par/layerobs")
	if fs := Run([]*Package{pkg}, l.Fset, []*Analyzer{Layering}); len(fs) != 2 {
		t.Fatalf("want the geodb and obs imports flagged, got %v", fs)
	}
}
