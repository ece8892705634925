package netsim

import (
	"fmt"
	"testing"

	"routergeo/internal/ipx"
)

// TestWorldInvariantsAcrossSeeds builds several independent small worlds
// and checks the structural invariants every downstream system assumes.
// These are the property-style guarantees the whole reproduction rests
// on; a regression in the generator shows up here before it corrupts an
// experiment.
func TestWorldInvariantsAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple world builds")
	}
	for seed := int64(100); seed < 106; seed++ {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.ASes = 130
		w, err := Build(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := validateWorld(w); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		// Every router belongs to the PoP that lists it.
		for i := range w.Routers {
			r := &w.Routers[i]
			pop := w.ASes[r.AS].PoPs[r.PoP]
			found := false
			for _, id := range pop.Routers {
				if id == r.ID {
					found = true
				}
			}
			if !found {
				t.Fatalf("seed %d: router %d missing from its PoP", seed, i)
			}
		}

		// Every interface's address resolves back to itself, and its /24
		// has an owner reachable by DestRouterFor.
		for i := range w.Interfaces {
			ifc := &w.Interfaces[i]
			got, ok := w.IfaceByAddr(ifc.Addr)
			if !ok || got != ifc.ID {
				t.Fatalf("seed %d: address index broken at %v", seed, ifc.Addr)
			}
			if _, ok := w.DestRouterFor(ifc.Addr); !ok {
				t.Fatalf("seed %d: %v unroutable", seed, ifc.Addr)
			}
		}

		// The seven ground-truth domains exist with hint-capable schemes.
		domains := map[string]bool{}
		for i := range w.ASes {
			domains[w.ASes[i].Domain] = true
			if w.ASes[i].HintCoverage < 0 || w.ASes[i].HintCoverage > 1 {
				t.Fatalf("seed %d: AS%d hint coverage %v out of range",
					seed, w.ASes[i].ASN, w.ASes[i].HintCoverage)
			}
		}
		for _, d := range []string{"cogentco.com", "ntt.net", "seabone.net", "pnap.net",
			"peak10.net", "digitalwest.net", "belwue.de"} {
			if !domains[d] {
				t.Fatalf("seed %d: seed domain %s missing", seed, d)
			}
		}

		// Links never exceed a hemisphere and are never negative-delay
		// (sanity for the Dijkstra weights).
		for _, l := range w.Links {
			if l.OneWayMs < 0 || l.OneWayMs > 200 {
				t.Fatalf("seed %d: implausible link delay %v ms", seed, l.OneWayMs)
			}
		}
	}
}

// BenchmarkBuildWorld measures default-scale world generation.
func BenchmarkBuildWorld(b *testing.B) {
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := Build(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// validateWorld performs internal consistency checks on w and returns
// the first violation found. The test suite runs it on every generated
// world.
func validateWorld(w *World) error {
	for i := range w.Interfaces {
		ifc := &w.Interfaces[i]
		if ifc.ID != IfaceID(i) {
			return fmt.Errorf("interface %d has ID %d", i, ifc.ID)
		}
		if int(ifc.Router) >= len(w.Routers) {
			return fmt.Errorf("interface %d references router %d", i, ifc.Router)
		}
		if got, ok := w.IfaceByAddr(ifc.Addr); !ok || got != ifc.ID {
			return fmt.Errorf("address index broken for %v", ifc.Addr)
		}
	}
	// IfaceByAddr reads base+1+k from the k-th entry of a block, so the
	// entries must be numbered densely from .1: .0, .255 and the address
	// one past a block's last interface hold none.
	for _, blk := range w.RoutedSlash24s() {
		ids := w.BlockIfaces(blk.Base)
		for _, a := range []ipx.Addr{blk.Base, blk.Base + 255, blk.Base + 1 + ipx.Addr(len(ids))} {
			if id, ok := w.IfaceByAddr(a); ok {
				return fmt.Errorf("IfaceByAddr(%v) = %d, want a miss", a, id)
			}
		}
	}
	for i := range w.Links {
		l := &w.Links[i]
		if w.Interfaces[l.AIface].Router != l.A || w.Interfaces[l.BIface].Router != l.B {
			return fmt.Errorf("link %d interface/router mismatch", i)
		}
		if l.OneWayMs < 0 {
			return fmt.Errorf("link %d has negative delay", i)
		}
	}
	// The graph must be connected or traceroutes cannot reach all /24s.
	if n := len(w.Routers); n > 0 {
		seen := make([]bool, n)
		queue := []RouterID{0}
		seen[0] = true
		count := 1
		for len(queue) > 0 {
			r := queue[0]
			queue = queue[1:]
			for _, h := range w.adj[r] {
				if !seen[h.Peer] {
					seen[h.Peer] = true
					count++
					queue = append(queue, h.Peer)
				}
			}
		}
		if count != n {
			return fmt.Errorf("graph disconnected: reached %d of %d routers", count, n)
		}
	}
	return nil
}
