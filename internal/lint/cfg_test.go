package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseBody parses src (a file fragment containing exactly one function
// declaration) and returns that function's body.
func parseBody(t *testing.T, src string) *ast.BlockStmt {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cfgtest.go", "package p\n"+src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			return fd.Body
		}
	}
	t.Fatal("no function in source")
	return nil
}

// TestCFGStructure pins the exact block/edge structure for the
// adversarial control-flow shapes the dataflow layer must handle:
// early returns, labeled break/continue across nested loops, defers
// with fallthrough and panic exits, goto-formed loops, and range over
// select. Dump is deterministic: entry first, exit last, successors in
// source order.
func TestCFGStructure(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		want   string
		defers int
	}{
		{
			name: "early return if/else-less",
			src: `func f(c bool) int {
	x := 1
	if c {
		return x
	}
	x++
	return x
}`,
			want: "b0 entry[2] -> b1 b2\n" +
				"b1 if.then[1] -> b3\n" +
				"b2 if.join[2] -> b3\n" +
				"b3 exit[0]\n",
		},
		{
			name: "labeled break and continue across nested loops",
			src: `func g(n int) int {
	s := 0
outer:
	for i := 0; i < n; i++ {
		for {
			if s > 10 {
				break outer
			}
			s++
			continue
		}
	}
	return s
}`,
			// The outer post and the inner for.done are unreachable
			// (the inner loop only exits via break outer) and pruned.
			want: "b0 entry[2] -> b1\n" +
				"b1 for.head[1] -> b2 b3\n" +
				"b2 for.body[0] -> b4\n" +
				"b3 for.done[1] -> b8\n" +
				"b4 for.head[0] -> b5\n" +
				"b5 for.body[1] -> b6 b7\n" +
				"b6 if.then[0] -> b3\n" +
				"b7 if.join[1] -> b4\n" +
				"b8 exit[0]\n",
		},
		{
			name: "defers, fallthrough, panic and return exits",
			src: `func h(mode int) {
	defer cleanup()
	switch mode {
	case 0:
		defer cleanup()
		fallthrough
	case 1:
		panic("bad")
	default:
		return
	}
}`,
			// switch.done is unreachable: every case leaves the
			// function. Both defer registrations are recorded.
			want: "b0 entry[2] -> b1 b2 b3\n" +
				"b1 switch.case[2] -> b2\n" +
				"b2 switch.case[2] -> b4\n" +
				"b3 switch.case[1] -> b4\n" +
				"b4 exit[0]\n",
			defers: 2,
		},
		{
			name: "goto-formed loop",
			src: `func k(n int) int {
retry:
	n--
	if n > 0 {
		goto retry
	}
	return n
}`,
			want: "b0 entry[0] -> b1\n" +
				"b1 label.retry[2] -> b2 b3\n" +
				"b2 if.then[1] -> b1\n" +
				"b3 if.join[1] -> b4\n" +
				"b4 exit[0]\n",
		},
		{
			name: "range over select",
			src: `func r(xs []int, ch chan int) int {
	s := 0
	for _, x := range xs {
		select {
		case ch <- x:
		default:
			s += x
		}
	}
	return s
}`,
			want: "b0 entry[1] -> b1\n" +
				"b1 range.head[1] -> b2 b3\n" +
				"b2 range.body[0] -> b4 b5\n" +
				"b3 range.done[1] -> b7\n" +
				"b4 select.comm[1] -> b6\n" +
				"b5 select.comm[1] -> b6\n" +
				"b6 select.done[0] -> b1\n" +
				"b7 exit[0]\n",
		},
		{
			name: "unreachable code after return is pruned",
			src: `func u() int {
	return 1
	return 2
}`,
			want: "b0 entry[1] -> b1\n" +
				"b1 exit[0]\n",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCFG(parseBody(t, tc.src))
			if got := dumpCFG(c); got != tc.want {
				t.Errorf("CFG mismatch:\ngot:\n%swant:\n%s", got, tc.want)
			}
			if len(c.Defers) != tc.defers {
				t.Errorf("defers: got %d, want %d", len(c.Defers), tc.defers)
			}
			if c.Blocks[0] != c.Entry || c.Blocks[len(c.Blocks)-1] != c.Exit {
				t.Error("entry must be first and exit last")
			}
		})
	}
}

// dumpCFG renders the graph deterministically for tests: one line per
// block with its kind, node count and successor indices.
func dumpCFG(c *CFG) string {
	var sb strings.Builder
	for _, blk := range c.Blocks {
		fmt.Fprintf(&sb, "b%d %s[%d]", blk.Index, blk.Kind, len(blk.Nodes))
		if len(blk.Succs) > 0 {
			sb.WriteString(" ->")
			for _, s := range blk.Succs {
				fmt.Fprintf(&sb, " b%d", s.Index)
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
