package traceroute

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"routergeo/internal/netsim"
)

var cachedWorld *netsim.World

func testWorld(t *testing.T) *netsim.World {
	t.Helper()
	if cachedWorld != nil {
		return cachedWorld
	}
	cfg := netsim.DefaultConfig()
	cfg.Seed = 42
	cfg.ASes = 150
	w, err := netsim.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cachedWorld = w
	return w
}

func TestTreeReachesEveryRouter(t *testing.T) {
	w := testWorld(t)
	tree := BuildTree(w, 0)
	for r := 0; r < w.NumRouters(); r++ {
		if !tree.Reachable(netsim.RouterID(r)) {
			t.Fatalf("router %d unreachable; world should be connected", r)
		}
	}
}

func TestPathEndpointsAndContinuity(t *testing.T) {
	w := testWorld(t)
	tree := BuildTree(w, 0)
	rng := rand.New(rand.NewSource(1))
	var ifaces []netsim.IfaceID
	for trial := 0; trial < 50; trial++ {
		dst := netsim.RouterID(rng.Intn(w.NumRouters()))
		ifaces = tree.Trace(rng, dst, ifaces[:0])
		if len(ifaces) != tree.HopCount(dst) {
			t.Fatalf("HopCount %d inconsistent with %d revealed interfaces", tree.HopCount(dst), len(ifaces))
		}
		// The path runs from the source through each revealed interface's
		// router, every consecutive pair sharing a link, and ends at dst.
		prev := tree.Src
		for _, id := range ifaces {
			r := w.Interfaces[id].Router
			found := false
			for _, h := range w.Neighbors(prev) {
				if h.Peer == r {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("path step %v->%v is not a link", prev, r)
			}
			prev = r
		}
		if prev != dst {
			t.Fatalf("path ends at %v, want %v", prev, dst)
		}
	}
}

func TestShortestDistances(t *testing.T) {
	// Dijkstra distances must satisfy the triangle property over links:
	// dist[b] <= dist[a] + w(a,b) for every link (a,b).
	w := testWorld(t)
	tree := BuildTree(w, 0)
	for r := 0; r < w.NumRouters(); r++ {
		for _, h := range w.Neighbors(netsim.RouterID(r)) {
			if tree.DistMs(h.Peer) > tree.DistMs(netsim.RouterID(r))+h.OneWayMs+1e-9 {
				t.Fatalf("relaxation violated at link %d->%d", r, h.Peer)
			}
		}
	}
}

func TestTraceRevealsIngressInterfaces(t *testing.T) {
	w := testWorld(t)
	tree := BuildTree(w, 0)
	rng := rand.New(rand.NewSource(2))
	dst := netsim.RouterID(w.NumRouters() - 1)
	ifaces := tree.Trace(rng, dst, nil)
	if len(ifaces) == 0 {
		t.Fatal("trace failed")
	}
	// Each revealed interface faces the previous hop: the other end of
	// its link sits on the router before it.
	prev := tree.Src
	for _, id := range ifaces {
		if id < 0 {
			t.Fatal("hop without interface")
		}
		if r := w.Interfaces[w.PeerIface(id)].Router; r != prev {
			t.Fatalf("revealed interface %d faces router %d, want the previous hop %d", id, r, prev)
		}
		prev = w.Interfaces[id].Router
	}
}

func TestTraceToSelf(t *testing.T) {
	w := testWorld(t)
	tree := BuildTree(w, 7)
	if ifaces := tree.Trace(rand.New(rand.NewSource(4)), 7, nil); len(ifaces) != 0 {
		t.Fatalf("self-trace revealed %v", ifaces)
	}
}

// TestTraceDrawsWhatRTTsDrew pins what Trace leaves behind: the rng where
// HopCount(dst)+1 ExpFloat64 draws leave a twin, the caller's slice
// extended by the Parent/ParentIface walk in source-to-destination
// order, and, toward an unreachable router, neither a draw nor an
// appended interface.
func TestTraceDrawsWhatRTTsDrew(t *testing.T) {
	w := privateWorld(t)
	// Price every link of the last router at +Inf, so no path reaches it.
	cut := netsim.RouterID(w.NumRouters() - 1)
	for r := 0; r < w.NumRouters(); r++ {
		for i, hops := 0, w.Neighbors(netsim.RouterID(r)); i < len(hops); i++ {
			if netsim.RouterID(r) == cut || hops[i].Peer == cut {
				hops[i].OneWayMs = math.Inf(1)
			}
		}
	}
	tree := BuildTree(w, 0)
	if tree.Reachable(cut) {
		t.Fatal("the cut router is still reachable")
	}
	rng, twin := rand.New(rand.NewSource(8)), rand.New(rand.NewSource(8))
	buf := []netsim.IfaceID{-7} // the caller's own entry stays in front
	for trial := 0; trial < 60; trial++ {
		dst := netsim.RouterID(rng.Intn(w.NumRouters()))
		twin.Intn(w.NumRouters())
		if trial%10 == 0 {
			dst = cut
		}
		got := tree.Trace(rng, dst, buf[:1])
		var want []netsim.IfaceID
		if tree.Reachable(dst) {
			for range tree.HopCount(dst) + 1 {
				twin.ExpFloat64()
			}
			for r := dst; r != tree.Src; r = tree.Parent(r) {
				want = append(want, tree.ParentIface(r))
			}
			slices.Reverse(want)
		}
		if a, b := rng.Int63(), twin.Int63(); a != b {
			t.Fatalf("trace to %d (%d hops, reachable %v): rng drew %d, its twin %d",
				dst, tree.HopCount(dst), tree.Reachable(dst), a, b)
		}
		if got[0] != -7 || !slices.Equal(got[1:], want) {
			t.Fatalf("trace to %d appended %v after %d, want %v after -7", dst, got[1:], got[0], want)
		}
		buf = got
	}
}

func BenchmarkBuildTree(b *testing.B) {
	cfg := netsim.DefaultConfig()
	cfg.Seed = 42
	cfg.ASes = 150
	w, err := netsim.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildTree(w, netsim.RouterID(i%w.NumRouters()))
	}
}
