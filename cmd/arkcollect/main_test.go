package main

import (
	"context"
	"testing"

	"routergeo"
	"routergeo/internal/experiments"
	"routergeo/internal/gazetteer"
)

// TestCollectMatchesNewEnv checks that arkcollect writes the Ark set the
// experiments measure: at world seed 7 and Quick() scale, its addresses
// are NewEnv's ArkAddrs, in order.
func TestCollectMatchesNewEnv(t *testing.T) {
	cfg := experiments.DefaultConfig()
	routergeo.Quick()(&cfg)
	routergeo.WithSeed(7)(&cfg)
	env, err := experiments.NewEnv(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, coll, err := collect(7, cfg.World.ASes, cfg.Ark.Monitors, cfg.Ark.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	if len(coll.Interfaces) != len(env.ArkAddrs) {
		t.Fatalf("arkcollect observed %d addresses, NewEnv's ArkAddrs holds %d", len(coll.Interfaces), len(env.ArkAddrs))
	}
	for i, id := range coll.Interfaces {
		if a := w.Interfaces[id].Addr; a != env.ArkAddrs[i] {
			t.Fatalf("address %d: arkcollect has %v, NewEnv %v", i, a, env.ArkAddrs[i])
		}
	}
}

// TestCollectRejectsMonitorCount checks that arkcollect fails before the
// build when asked for more monitors than there are embedded cities: each
// monitor takes a city of its own, so placing them would never finish.
func TestCollectRejectsMonitorCount(t *testing.T) {
	n := gazetteer.NumCities() + 1
	if _, _, err := collect(1, 0, n, 0); err == nil {
		t.Fatalf("collect with %d monitors returned no error", n)
	}
}
