package traceroute

import (
	"math/rand"
	"testing"

	"routergeo/internal/netsim"
	"routergeo/internal/rtt"
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
	e := New(w)
	tree := e.BuildTree(0)
	for r := 0; r < w.NumRouters(); r++ {
		if !tree.Reachable(netsim.RouterID(r)) {
			t.Fatalf("router %d unreachable; world should be connected", r)
		}
	}
}

func TestPathEndpointsAndContinuity(t *testing.T) {
	w := testWorld(t)
	e := New(w)
	tree := e.BuildTree(0)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		dst := netsim.RouterID(rng.Intn(w.NumRouters()))
		hops := e.Trace(rng, tree, dst, 0)
		if hops[0].Router != 0 || hops[len(hops)-1].Router != dst {
			t.Fatalf("path endpoints wrong: %v -> %v", hops[0].Router, hops[len(hops)-1].Router)
		}
		// Every consecutive pair must share a link.
		for i := 1; i < len(hops); i++ {
			found := false
			for _, h := range w.Neighbors(hops[i-1].Router) {
				if h.Peer == hops[i].Router {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("path step %v->%v is not a link", hops[i-1].Router, hops[i].Router)
			}
		}
		if len(hops) != tree.HopCount(dst)+1 {
			t.Fatalf("HopCount %d inconsistent with path length %d", tree.HopCount(dst), len(hops))
		}
	}
}

func TestShortestDistances(t *testing.T) {
	// Dijkstra distances must satisfy the triangle property over links:
	// dist[b] <= dist[a] + w(a,b) for every link (a,b).
	w := testWorld(t)
	e := New(w)
	tree := e.BuildTree(0)
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
	e := New(w)
	tree := e.BuildTree(0)
	rng := rand.New(rand.NewSource(2))
	dst := netsim.RouterID(w.NumRouters() - 1)
	hops := e.Trace(rng, tree, dst, 0)
	if hops == nil {
		t.Fatal("trace failed")
	}
	if hops[0].Iface != -1 {
		t.Error("source hop must not reveal an interface")
	}
	for _, h := range hops[1:] {
		if h.Iface < 0 {
			t.Fatal("intermediate hop without interface")
		}
		ifc := w.Interfaces[h.Iface]
		if ifc.Router != h.Router {
			t.Fatalf("revealed interface %d not on router %d", h.Iface, h.Router)
		}
	}
}

func TestTraceRTTsRespectPropagation(t *testing.T) {
	w := testWorld(t)
	e := New(w)
	tree := e.BuildTree(0)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		dst := netsim.RouterID(rng.Intn(w.NumRouters()))
		base := 1.5
		for _, h := range e.Trace(rng, tree, dst, base) {
			floor := base + 2*tree.DistMs(h.Router)
			if h.RTTMs < floor-1e-9 {
				t.Fatalf("hop RTT %.3f below propagation floor %.3f", h.RTTMs, floor)
			}
		}
	}
}

func TestTraceToSelf(t *testing.T) {
	w := testWorld(t)
	e := New(w)
	tree := e.BuildTree(7)
	hops := e.Trace(rand.New(rand.NewSource(4)), tree, 7, 0)
	if len(hops) != 1 || hops[0].Router != 7 {
		t.Fatalf("self-trace = %+v", hops)
	}
}

func TestNearbyDestinationHasSmallRTT(t *testing.T) {
	// A destination one link away must show an RTT close to twice the link
	// delay — the property the 0.5 ms proximity rule exploits.
	w := testWorld(t)
	e := New(w)
	src := netsim.RouterID(0)
	tree := e.BuildTree(src)
	var nearest netsim.RouterID = -1
	bestD := 0.0
	for _, h := range w.Neighbors(src) {
		if nearest < 0 || tree.DistMs(h.Peer) < bestD {
			nearest, bestD = h.Peer, tree.DistMs(h.Peer)
		}
	}
	rng := rand.New(rand.NewSource(5))
	hops := e.Trace(rng, tree, nearest, 0)
	last := hops[len(hops)-1]
	if last.RTTMs < 2*bestD {
		t.Fatalf("RTT %.3f under propagation %.3f", last.RTTMs, 2*bestD)
	}
	if last.RTTMs > 2*bestD+5 {
		t.Fatalf("RTT %.3f implausibly inflated for a direct link of %.3f ms", last.RTTMs, bestD)
	}
}

func TestProximityRuleSoundOverTraces(t *testing.T) {
	// For every hop of every trace: if the RTT (minus the known base) is
	// under 0.5 ms, the hop router must be within 50 km of the source.
	// This is the end-to-end soundness of the paper's §2.3.2 rule in our
	// simulator.
	w := testWorld(t)
	e := New(w)
	rng := rand.New(rand.NewSource(6))
	srcs := []netsim.RouterID{0, 11, 77}
	for _, src := range srcs {
		tree := e.BuildTree(src)
		srcCoord := w.Routers[src].Coord
		for trial := 0; trial < 40; trial++ {
			dst := netsim.RouterID(rng.Intn(w.NumRouters()))
			for _, h := range e.Trace(rng, tree, dst, 0) {
				if h.RTTMs < 0.5 {
					d := w.Routers[h.Router].Coord.DistanceKm(srcCoord)
					if d > rtt.MaxDistanceKmForRTT(0.5) {
						t.Fatalf("hop with %.3f ms RTT is %.1f km away", h.RTTMs, d)
					}
				}
			}
		}
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
	e := New(w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.BuildTree(netsim.RouterID(i % w.NumRouters()))
	}
}
