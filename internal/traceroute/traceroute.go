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

	"routergeo/internal/netsim"
	"routergeo/internal/rtt"
)

// Hop is one line of a traceroute result.
type Hop struct {
	Router netsim.RouterID
	// Iface is the ingress interface whose address appears in the result.
	// It is -1 for the source router itself (a traceroute never reveals
	// its own first router's upstream side).
	Iface netsim.IfaceID
	// RTTMs is the sampled round-trip time from the source to this hop.
	RTTMs float64
}

// Tree is a single-source shortest-delay tree over the world's routers.
type Tree struct {
	Src netsim.RouterID

	parent      []netsim.RouterID
	parentIface []netsim.IfaceID // ingress iface at node, on the link from parent
	distMs      []float64        // one-way propagation from Src
	hops        []int32
}

// Engine runs traceroutes with a given delay model.
type Engine struct {
	World *netsim.World
	Model rtt.Model
}

// New returns an engine with the default delay model.
func New(w *netsim.World) *Engine {
	return &Engine{World: w, Model: rtt.DefaultModel()}
}

// BuildTree computes the shortest-delay tree from src. Cost is one
// Dijkstra run (O(E log V)); reuse the tree for every destination.
func (e *Engine) BuildTree(src netsim.RouterID) *Tree {
	n := e.World.NumRouters()
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
		for _, h := range e.World.Neighbors(cur.router) {
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

// Trace produces the hop list a traceroute from the tree's source to dst
// would report. baseMs is added to every RTT (the source's access-link
// delay — zero for Ark monitors colocated with their first router,
// the probe's last-mile for Atlas). Per-hop RTTs are sampled with
// independent queueing noise but share the deterministic propagation
// component, so RTTs increase (almost) monotonically along the path like
// real traceroutes. Returns nil when dst is unreachable.
func (e *Engine) Trace(rng *rand.Rand, t *Tree, dst netsim.RouterID, baseMs float64) []Hop {
	if !t.Reachable(dst) {
		return nil
	}
	// Walk the parent pointers from dst back to the source, writing the
	// routers in source-to-destination order, then sample the RTTs front
	// to back so the rng draws stay in hop order.
	out := make([]Hop, t.hops[dst]+1)
	r := dst
	for i := len(out) - 1; i >= 0; i-- {
		out[i].Router = r
		r = t.parent[r]
	}
	for i := range out {
		h := &out[i]
		h.Iface = -1
		if i > 0 {
			h.Iface = t.parentIface[h.Router]
		}
		prop := 2*t.distMs[h.Router] + float64(i)*e.Model.PerHopMs
		h.RTTMs = baseMs + prop + rng.ExpFloat64()*e.Model.QueueMeanMs
	}
	return out
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
