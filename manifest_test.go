package routergeo

// A run manifest must reproduce its run: the config it records is
// enough to rebuild the same environment and print the same artifacts.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"routergeo/internal/experiments"
	"routergeo/internal/obs"
)

// TestManifestReproducesRun builds a non-default environment (seed 7,
// 1,200 ASes) under obs.NewRun, writes the manifest, and rebuilds from
// the manifest's config alone: the sizes and the RunAll output must
// match. The manifest's env.build tree must hold every build stage once,
// under the same parent, however NewEnv schedules them.
func TestManifestReproducesRun(t *testing.T) {
	ctx := context.Background()
	cfg := experiments.DefaultConfig()
	cfg.World.Seed = 7
	cfg.World.ASes = 1200

	rec := obs.NewRun("routergeo")
	rec.SetSeed(cfg.World.Seed)
	if err := rec.SetConfig(cfg); err != nil {
		t.Fatalf("SetConfig: %v", err)
	}
	env, err := experiments.NewEnv(rec.Context(ctx), cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := rec.WriteManifest(path); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	checkEnvBuildSpans(t, m.Stages)
	var back experiments.Config
	if err := json.Unmarshal(m.Config, &back); err != nil {
		t.Fatalf("manifest config does not decode: %v", err)
	}
	again, err := experiments.NewEnv(ctx, back)
	if err != nil {
		t.Fatal(err)
	}

	sizes := func(e *experiments.Env) [3]int {
		return [3]int{len(e.ArkAddrs), len(e.Targets), len(e.Measurements)}
	}
	if got, want := sizes(again), sizes(env); got != want {
		t.Errorf("rebuilt (Ark addresses, targets, measurements) = %v, want %v", got, want)
	}
	digest := func(e *experiments.Env) [sha256.Size]byte {
		var buf bytes.Buffer
		if err := experiments.RunAll(ctx, &buf, e); err != nil {
			t.Fatal(err)
		}
		return sha256.Sum256(buf.Bytes())
	}
	if got, want := digest(again), digest(env); got != want {
		t.Errorf("RunAll output of the rebuilt run: sha256 %x, want %x", got, want)
	}
}

// envBuildSpans is every span path under env.build, each naming its
// parent before a slash.
var envBuildSpans = []string{
	"netsim.build",
	"rdns.synthesize",
	"ark.collect",
	"groundtruth.dns",
	"atlas.deploy",
	"groundtruth.rtt",
	"atlas.deploy_1ms",
	"groundtruth.1ms",
	"groundtruth.1ms/groundtruth.rtt",
	"netsim.evolve",
	"vendors.build",
	"vendors.build/vendors.build.IP2Location-Lite",
	"vendors.build/vendors.build.MaxMind-GeoLite",
	"vendors.build/vendors.build.MaxMind-Paid",
	"vendors.build/vendors.build.NetAcuity",
	"groundtruth.merge",
}

// checkEnvBuildSpans asserts that the one env.build span under root has
// exactly the paths in envBuildSpans, each once.
func checkEnvBuildSpans(t *testing.T, root obs.SpanSnapshot) {
	t.Helper()
	var builds []obs.SpanSnapshot
	for _, c := range root.Children {
		if c.Name == "env.build" {
			builds = append(builds, c)
		}
	}
	if len(builds) != 1 {
		t.Fatalf("manifest has %d env.build spans, want 1", len(builds))
	}
	seen := map[string]int{}
	var walk func(prefix string, s obs.SpanSnapshot)
	walk = func(prefix string, s obs.SpanSnapshot) {
		for _, c := range s.Children {
			path := prefix + c.Name
			seen[path]++
			walk(path+"/", c)
		}
	}
	walk("", builds[0])
	for _, p := range envBuildSpans {
		if seen[p] != 1 {
			t.Errorf("env.build span %s appears %d times, want once", p, seen[p])
		}
		delete(seen, p)
	}
	for p, n := range seen {
		t.Errorf("unexpected env.build span %s (%d times)", p, n)
	}
}
