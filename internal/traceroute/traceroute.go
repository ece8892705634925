// Package traceroute runs simulated traceroutes over a netsim.World.
//
// Both measurement systems the paper consumes are built on it: CAIDA
// Ark's topology sweeps (internal/ark) and RIPE Atlas's built-in
// measurements (internal/atlas). A measurement source is attached to a
// router; paths follow the world's link graph along minimum-delay routes
// (one shortest-path tree per source, so tracing to every destination
// from one vantage point costs a single Dijkstra run); each hop reveals
// the *ingress* interface of the router it crosses, which is what real
// traceroute shows and what makes the collected interface sets
// ingress-biased exactly like Ark's.
package traceroute

import (
	"math"
	"math/rand"
	"slices"

	"routergeo/internal/netsim"
)

// Tree is a single-source shortest-delay tree over the world's routers.
type Tree struct {
	Src netsim.RouterID

	parent      []netsim.RouterID
	parentIface []netsim.IfaceID // ingress iface at node, on the link from parent
	distMs      []float64        // one-way propagation from Src
	hops        []int32
}

// BuildTree computes the shortest-delay tree from src over w's links.
// Cost is one Dijkstra run (O(E log V)); reuse the tree for every
// destination.
func BuildTree(w *netsim.World, src netsim.RouterID) *Tree {
	n := w.NumRouters()
	t := &Tree{
		Src:         src,
		parent:      make([]netsim.RouterID, n),
		parentIface: make([]netsim.IfaceID, n),
		distMs:      make([]float64, n),
		hops:        make([]int32, n),
	}
	for i := range t.parent {
		t.parent[i] = -1
		t.parentIface[i] = -1
		t.distMs[i] = math.Inf(1)
	}
	t.distMs[src] = 0

	pq := make(nodeQueue, 0, 64)
	pq.push(node{router: src, dist: 0})
	for len(pq) > 0 {
		cur := pq.pop()
		if cur.dist > t.distMs[cur.router] {
			continue // stale entry
		}
		for _, h := range w.Neighbors(cur.router) {
			nd := cur.dist + h.OneWayMs
			if nd < t.distMs[h.Peer] {
				t.distMs[h.Peer] = nd
				t.parent[h.Peer] = cur.router
				t.parentIface[h.Peer] = h.PeerIface
				t.hops[h.Peer] = t.hops[cur.router] + 1
				pq.push(node{router: h.Peer, dist: nd})
			}
		}
	}
	return t
}

// Parent returns the previous router on the tree path from the source to
// r, or -1 for the source itself. Because the world's links are symmetric,
// a tree rooted at a *destination* doubles as a reverse-path table: walking
// Parent pointers from any router yields that router's forward path to the
// root. internal/atlas exploits this to serve thousands of probes with one
// Dijkstra run per target.
func (t *Tree) Parent(r netsim.RouterID) netsim.RouterID { return t.parent[r] }

// ParentIface returns the interface *at r* on the link between r and its
// parent, or -1 at the root.
func (t *Tree) ParentIface(r netsim.RouterID) netsim.IfaceID { return t.parentIface[r] }

// Reachable reports whether dst is reachable from the tree's source.
func (t *Tree) Reachable(dst netsim.RouterID) bool {
	return !math.IsInf(t.distMs[dst], 1)
}

// DistMs returns the one-way propagation delay to dst.
func (t *Tree) DistMs(dst netsim.RouterID) float64 { return t.distMs[dst] }

// HopCount returns the number of links on the path to dst.
func (t *Tree) HopCount(dst netsim.RouterID) int { return int(t.hops[dst]) }

// Trace appends to buf the ingress interfaces a traceroute from the
// tree's source to dst reveals, in hop order, and returns the extended
// slice. The source's own router reveals none (a traceroute never shows
// its first router's upstream side), so a trace to the source appends
// nothing. When dst is unreachable Trace returns buf unchanged and draws
// nothing from rng.
//
// No caller reads a traceroute's RTTs, so none are computed, but Trace
// still draws the one exponential queueing sample per hop, the source's
// included, that they took: callers share rng with their own picks (Ark
// its targets and monitors, SamplePaths its routers), and those picks
// replay exactly only if Trace leaves rng where the RTT sampling did.
func (t *Tree) Trace(rng *rand.Rand, dst netsim.RouterID, buf []netsim.IfaceID) []netsim.IfaceID {
	if !t.Reachable(dst) {
		return buf
	}
	n := int(t.hops[dst])
	for range n + 1 {
		rng.ExpFloat64()
	}
	// Walk the parent pointers from dst back to the source, writing the
	// interfaces from the end so they land in source-to-destination order.
	start := len(buf)
	buf = slices.Grow(buf, n)[:start+n]
	r := dst
	for i := start + n - 1; i >= start; i-- {
		buf[i] = t.parentIface[r]
		r = t.parent[r]
	}
	return buf
}

// node and nodeQueue implement the Dijkstra priority queue: a binary
// min-heap on dist, typed so no entry is boxed into an interface. push
// and pop perform container/heap's Push and Pop step for step (the same
// comparisons, the same child choice, the swap with the last element
// before sifting down), so entries with equal dist pop in the order
// container/heap would pop them and every tree, ties included, matches
// a container/heap Dijkstra.
type node struct {
	router netsim.RouterID
	dist   float64
}

type nodeQueue []node

// push appends x and sifts it up, as container/heap's up does.
func (q *nodeQueue) push(x node) {
	*q = append(*q, x)
	h := *q
	j := len(h) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// pop swaps the root with the last entry, sifts the new root down over
// the first n-1 entries, as container/heap's down does, and removes and
// returns the old root.
func (q *nodeQueue) pop() node {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].dist < h[j1].dist {
			j = j2 // right child
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = h[:n]
	return h[n]
}
