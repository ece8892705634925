package lint

import (
	"go/ast"
	"sort"
	"strings"
	"testing"
)

// assignedVars is a test FlowAnalysis: the set of variable names that
// MAY have been assigned on some path reaching a point. Its lattice is
// the powerset of names under union — exactly the shape the real
// analyzers use.
type assignedVars struct{}

func (assignedVars) Entry() map[string]bool { return map[string]bool{} }

func (assignedVars) Transfer(fact map[string]bool, n ast.Node) map[string]bool {
	var names []string
	switch s := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range s.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
				names = append(names, id.Name)
			}
		}
	case *ast.IncDecStmt:
		if id, ok := s.X.(*ast.Ident); ok {
			names = append(names, id.Name)
		}
	}
	if len(names) == 0 {
		return fact
	}
	out := make(map[string]bool, len(fact)+len(names))
	for k := range fact {
		out[k] = true
	}
	for _, n := range names {
		out[n] = true
	}
	return out
}

func (assignedVars) Join(a, b map[string]bool) map[string]bool {
	out := make(map[string]bool, len(a)+len(b))
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

func (assignedVars) Equal(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func factString(fact map[string]bool) string {
	keys := make([]string, 0, len(fact))
	for k := range fact {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}

// blockByKind returns the first block of the given kind.
func blockByKind(t *testing.T, c *CFG, kind string) *Block {
	t.Helper()
	for _, b := range c.Blocks {
		if b.Kind == kind {
			return b
		}
	}
	t.Fatalf("no %q block in CFG:\n%s", kind, dumpCFG(c))
	return nil
}

// TestForwardFlowJoinsBranches pins that facts from both arms of a
// branch merge at the join and reach the exit.
func TestForwardFlowJoinsBranches(t *testing.T) {
	c := NewCFG(parseBody(t, `func f(c bool) {
	a := 1
	if c {
		b := 2
		_ = b
	} else {
		d := 3
		_ = d
	}
	a++
}`))
	in, out := ForwardFlow[map[string]bool](c, assignedVars{})
	if got := factString(in[c.Exit]); got != "a b d" {
		t.Errorf("exit fact: got %q, want %q", got, "a b d")
	}
	join := blockByKind(t, c, "if.join")
	if got := factString(in[join]); got != "a b d" {
		t.Errorf("join in-fact: got %q, want %q", got, "a b d")
	}
	entry := c.Entry
	if got := factString(out[entry]); !strings.Contains(got, "a") {
		t.Errorf("entry out-fact must contain a, got %q", got)
	}
}

// TestForwardFlowLoopFixpoint pins that facts created in a loop body
// propagate around the back edge into the loop head — the fixpoint a
// single forward pass cannot reach.
func TestForwardFlowLoopFixpoint(t *testing.T) {
	c := NewCFG(parseBody(t, `func g(n int) {
	a := 0
	for i := 0; i < n; i++ {
		e := i
		_ = e
	}
}`))
	in, _ := ForwardFlow[map[string]bool](c, assignedVars{})
	head := blockByKind(t, c, "for.head")
	if got := factString(in[head]); got != "a e i" {
		t.Errorf("loop head must see the body's fact via the back edge: got %q, want %q", got, "a e i")
	}
	if got := factString(in[c.Exit]); got != "a e i" {
		t.Errorf("exit fact: got %q, want %q", got, "a e i")
	}
}

// TestForwardFlowLabeledLoopTermination pins fixpoint termination and
// fact propagation through a labeled-continue graph (two back edges
// into different heads).
func TestForwardFlowLabeledLoopTermination(t *testing.T) {
	c := NewCFG(parseBody(t, `func h(rows [][]int) {
	total := 0
outer:
	for _, row := range rows {
		for _, v := range row {
			if v < 0 {
				skipped := v
				_ = skipped
				continue outer
			}
			total += v
		}
		done := 1
		_ = done
	}
}`))
	in, _ := ForwardFlow[map[string]bool](c, assignedVars{})
	outerHead := blockByKind(t, c, "range.head")
	got := in[outerHead]
	// Range key/value bindings are not AssignStmt nodes (the head holds
	// only the range expression), so "row"/"v" are absent by design.
	for _, want := range []string{"total", "skipped", "done"} {
		if !got[want] {
			t.Errorf("outer head missing %q via back edges; got %q", want, factString(got))
		}
	}
}

// TestForwardFlowDeferHeavy pins that defer registrations flow like any
// other node: a defer registered on one branch is a MAY-fact at exit.
type sawDefer struct{}

func (sawDefer) Entry() bool { return false }
func (sawDefer) Transfer(fact bool, n ast.Node) bool {
	if _, ok := n.(*ast.DeferStmt); ok {
		return true
	}
	return fact
}
func (sawDefer) Join(a, b bool) bool  { return a || b }
func (sawDefer) Equal(a, b bool) bool { return a == b }

func TestForwardFlowDeferHeavy(t *testing.T) {
	c := NewCFG(parseBody(t, `func k(c bool) {
	if c {
		defer println("x")
	}
	println("y")
}`))
	in, _ := ForwardFlow[bool](c, sawDefer{})
	if !in[c.Exit] {
		t.Error("defer on one branch must be a may-fact at exit")
	}
	if len(c.Defers) != 1 {
		t.Errorf("Defers: got %d, want 1", len(c.Defers))
	}
}
