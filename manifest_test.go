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
// match.
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
