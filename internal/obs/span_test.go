package obs

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanNesting(t *testing.T) {
	ctx, root := Start(context.Background(), "root")
	ctx1, child := Start(ctx, "child")
	_, grand := Start(ctx1, "grandchild")
	grand.SetItems(7)
	grand.SetAttr("db", "ipinfuse")
	grand.End()
	child.End()
	// A sibling started from the root context lands next to "child".
	_, sib := Start(ctx, "sibling")
	sib.End()
	root.End()

	snap := root.Snapshot()
	if snap.Name != "root" || len(snap.Children) != 2 {
		t.Fatalf("root snapshot: name=%q children=%d, want root/2", snap.Name, len(snap.Children))
	}
	c := snap.Children[0]
	if c.Name != "child" || len(c.Children) != 1 {
		t.Fatalf("child snapshot: %+v", c)
	}
	g := c.Children[0]
	if g.Name != "grandchild" || g.Items != 7 || g.Attrs["db"] != "ipinfuse" {
		t.Fatalf("grandchild snapshot: %+v", g)
	}
	if snap.Children[1].Name != "sibling" {
		t.Fatalf("sibling snapshot: %+v", snap.Children[1])
	}
	if snap.WallMs < 0 {
		t.Errorf("wall_ms = %v, want >= 0", snap.WallMs)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	_, sp := Start(context.Background(), "x")
	sp.End()
	first := sp.Snapshot().WallMs
	time.Sleep(5 * time.Millisecond)
	sp.End()
	if got := sp.Snapshot().WallMs; got != first {
		t.Errorf("second End moved wall_ms from %v to %v", first, got)
	}
}

func TestSpanDetachedRoot(t *testing.T) {
	// No span in the context: Start still works, just detached.
	ctx, sp := Start(context.Background(), "lonely")
	if FromContext(ctx) != sp {
		t.Error("context does not carry the started span")
	}
	sp.End()
}

func TestSpanConcurrentChildren(t *testing.T) {
	ctx, root := Start(context.Background(), "root")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, sp := Start(ctx, "worker")
			sp.SetItems(1)
			sp.End()
		}()
	}
	wg.Wait()
	root.End()
	if got := len(root.Snapshot().Children); got != 16 {
		t.Errorf("children = %d, want 16", got)
	}
}

func TestRunManifest(t *testing.T) {
	run := NewRun("testtool")
	run.SetSeed(42)
	if err := run.SetConfig(map[string]int{"targets": 9}); err != nil {
		t.Fatal(err)
	}
	run.SetCount("ark_addresses", 1600000)
	run.Registry().Counter("lookups").Add(3)

	ctx := run.Context(context.Background())
	ctx, stage := Start(ctx, "groundtruth.rtt")
	_, inner := Start(ctx, "groundtruth.rtt.probe")
	inner.SetItems(500)
	inner.End()
	stage.End()

	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := run.WriteManifest(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if m.Tool != "testtool" {
		t.Errorf("tool = %q", m.Tool)
	}
	if m.Seed == nil || *m.Seed != 42 {
		t.Errorf("seed = %v, want 42", m.Seed)
	}
	if m.Counts["ark_addresses"] != 1600000 {
		t.Errorf("counts = %v", m.Counts)
	}
	if m.GoVersion == "" || m.PID == 0 || len(m.Argv) == 0 {
		t.Errorf("identity fields missing: %+v", m)
	}
	if m.Stages.Name != "testtool" || len(m.Stages.Children) != 1 {
		t.Fatalf("stage tree: %+v", m.Stages)
	}
	st := m.Stages.Children[0]
	if st.Name != "groundtruth.rtt" || len(st.Children) != 1 || st.Children[0].Items != 500 {
		t.Fatalf("stage subtree: %+v", st)
	}
	if m.Metrics == nil || m.Metrics.Counters["lookups"] != 3 {
		t.Errorf("metrics snapshot: %+v", m.Metrics)
	}
	var cfg map[string]int
	if err := json.Unmarshal(m.Config, &cfg); err != nil || cfg["targets"] != 9 {
		t.Errorf("config round-trip: %s (%v)", m.Config, err)
	}
	if m.WallMs < m.Stages.Children[0].WallMs {
		t.Errorf("run wall %v shorter than stage wall %v", m.WallMs, m.Stages.Children[0].WallMs)
	}
}

func TestRunManifestTwice(t *testing.T) {
	run := NewRun("t")
	m1 := run.Manifest()
	time.Sleep(2 * time.Millisecond)
	m2 := run.Manifest()
	if m1.WallMs != m2.WallMs {
		t.Errorf("second Manifest moved wall_ms: %v -> %v", m1.WallMs, m2.WallMs)
	}
}

// TestManifestRevision checks revision on hand-made build settings: the
// stamped commit, "-dirty" when vcs.modified is true, and nothing
// without a commit. An unstamped manifest leaves the field out.
func TestManifestRevision(t *testing.T) {
	const rev = "6399b0143e64d53a92face8dc3ba975d0588e701"
	set := func(kv ...string) []debug.BuildSetting {
		var out []debug.BuildSetting
		for i := 0; i < len(kv); i += 2 {
			out = append(out, debug.BuildSetting{Key: kv[i], Value: kv[i+1]})
		}
		return out
	}
	for _, tc := range []struct {
		settings []debug.BuildSetting
		want     string
	}{
		{nil, ""},
		{set("-compiler", "gc", "GOARCH", "amd64"), ""},
		{set("vcs", "git", "vcs.revision", rev), rev},
		{set("vcs.revision", rev, "vcs.modified", "false"), rev},
		{set("vcs.modified", "true", "vcs.revision", rev, "vcs.time", "2026-10-19T04:07:30Z"), rev + "-dirty"},
		{set("vcs.modified", "true"), ""},
	} {
		if got := revision(tc.settings); got != tc.want {
			t.Errorf("revision(%v) = %q, want %q", tc.settings, got, tc.want)
		}
	}
	data, err := json.Marshal(Manifest{Tool: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"revision"`) {
		t.Errorf("manifest without a revision encodes one: %s", data)
	}
}
