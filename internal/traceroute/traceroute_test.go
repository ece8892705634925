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
	for trial := 0; trial < 50; trial++ {
		dst := netsim.RouterID(rng.Intn(w.NumRouters()))
		hops := tree.Trace(rng, dst)
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
	hops := tree.Trace(rng, dst)
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
	tree := BuildTree(w, 0)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		dst := netsim.RouterID(rng.Intn(w.NumRouters()))
		for _, h := range tree.Trace(rng, dst) {
			floor := 2 * tree.DistMs(h.Router)
			if h.RTTMs < floor-1e-9 {
				t.Fatalf("hop RTT %.3f below propagation floor %.3f", h.RTTMs, floor)
			}
		}
	}
}

func TestTraceToSelf(t *testing.T) {
	w := testWorld(t)
	tree := BuildTree(w, 7)
	hops := tree.Trace(rand.New(rand.NewSource(4)), 7)
	if len(hops) != 1 || hops[0].Router != 7 {
		t.Fatalf("self-trace = %+v", hops)
	}
}

func TestNearbyDestinationHasSmallRTT(t *testing.T) {
	// A destination one link away must show an RTT close to twice the link
	// delay — the property the 0.5 ms proximity rule exploits.
	w := testWorld(t)
	src := netsim.RouterID(0)
	tree := BuildTree(w, src)
	var nearest netsim.RouterID = -1
	bestD := 0.0
	for _, h := range w.Neighbors(src) {
		if nearest < 0 || tree.DistMs(h.Peer) < bestD {
			nearest, bestD = h.Peer, tree.DistMs(h.Peer)
		}
	}
	rng := rand.New(rand.NewSource(5))
	hops := tree.Trace(rng, nearest)
	last := hops[len(hops)-1]
	if last.RTTMs < 2*bestD {
		t.Fatalf("RTT %.3f under propagation %.3f", last.RTTMs, 2*bestD)
	}
	if last.RTTMs > 2*bestD+5 {
		t.Fatalf("RTT %.3f implausibly inflated for a direct link of %.3f ms", last.RTTMs, bestD)
	}
}

func TestProximityRuleSoundOverTraces(t *testing.T) {
	// For every hop of every trace: if the RTT is under 0.5 ms, the hop
	// router must be within 50 km of the source. This is the end-to-end
	// soundness of the paper's §2.3.2 rule in our simulator.
	w := testWorld(t)
	rng := rand.New(rand.NewSource(6))
	srcs := []netsim.RouterID{0, 11, 77}
	for _, src := range srcs {
		tree := BuildTree(w, src)
		srcCoord := w.Routers[src].Coord
		for trial := 0; trial < 40; trial++ {
			dst := netsim.RouterID(rng.Intn(w.NumRouters()))
			for _, h := range tree.Trace(rng, dst) {
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildTree(w, netsim.RouterID(i%w.NumRouters()))
	}
}
