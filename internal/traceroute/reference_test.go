package traceroute

import (
	"container/heap"
	"math"
	"testing"

	"routergeo/internal/netsim"
)

// refTree is the shortest-delay tree of referenceTree.
type refTree struct {
	parent      []netsim.RouterID
	parentIface []netsim.IfaceID
	distMs      []float64
	hops        []int32
}

// referenceTree is BuildTree's Dijkstra driven by container/heap, the
// queue the engine used before its heap was typed to node. When two
// paths to a router tie, the entry the heap pops first becomes the
// parent, so BuildTree must pop in exactly this order to build the same
// trees.
func referenceTree(w *netsim.World, src netsim.RouterID) refTree {
	n := w.NumRouters()
	t := refTree{
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

	pq := &refQueue{{router: src, dist: 0}}
	for pq.Len() > 0 {
		cur := heap.Pop(pq).(node)
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
				heap.Push(pq, node{router: h.Peer, dist: nd})
			}
		}
	}
	return t
}

type refQueue []node

func (q refQueue) Len() int            { return len(q) }
func (q refQueue) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q refQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x interface{}) { *q = append(*q, x.(node)) }
func (q *refQueue) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

// checkAgainstReference fails t unless BuildTree from src answers
// Parent, ParentIface, DistMs and HopCount exactly as referenceTree does
// for every router.
func checkAgainstReference(t *testing.T, w *netsim.World, src netsim.RouterID) {
	t.Helper()
	got := BuildTree(w, src)
	want := referenceTree(w, src)
	for i := 0; i < w.NumRouters(); i++ {
		r := netsim.RouterID(i)
		if got.Parent(r) != want.parent[r] || got.ParentIface(r) != want.parentIface[r] ||
			got.DistMs(r) != want.distMs[r] || got.HopCount(r) != int(want.hops[r]) {
			t.Fatalf("src %d, router %d: BuildTree gives parent %d iface %d dist %v hops %d; reference gives %d %d %v %d",
				src, r, got.Parent(r), got.ParentIface(r), got.DistMs(r), got.HopCount(r),
				want.parent[r], want.parentIface[r], want.distMs[r], want.hops[r])
		}
	}
}

func TestTreesMatchContainerHeapReference(t *testing.T) {
	w := testWorld(t)
	n := w.NumRouters()
	srcs := 0
	for r := 0; r < n; r += n/120 + 1 {
		checkAgainstReference(t, w, netsim.RouterID(r))
		srcs++
	}
	if srcs < 100 {
		t.Fatalf("checked %d sources, want at least 100", srcs)
	}
}

// privateWorld builds a world no other test shares, so a test may
// rewrite its link delays.
func privateWorld(tb testing.TB) *netsim.World {
	tb.Helper()
	cfg := netsim.DefaultConfig()
	cfg.Seed = 42
	cfg.ASes = 150
	w, err := netsim.Build(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

// TestTreesMatchReferenceWithUnitDelays makes every path length a hop
// count, so most routers have several equally short candidate parents
// and only the heap's pop order decides between them.
func TestTreesMatchReferenceWithUnitDelays(t *testing.T) {
	w := privateWorld(t)
	for r := 0; r < w.NumRouters(); r++ {
		for i, hops := 0, w.Neighbors(netsim.RouterID(r)); i < len(hops); i++ {
			hops[i].OneWayMs = 1
		}
	}
	tied := 0
	n := w.NumRouters()
	for r := 0; r < n; r += n/120 + 1 {
		src := netsim.RouterID(r)
		checkAgainstReference(t, w, src)
		ref := referenceTree(w, src)
		for v := 0; v < n; v++ {
			parents := 0
			for _, h := range w.Neighbors(netsim.RouterID(v)) {
				if ref.distMs[h.Peer]+1 == ref.distMs[v] {
					parents++
				}
			}
			if parents > 1 {
				tied++
			}
		}
	}
	if tied == 0 {
		t.Fatal("no router has two equally short candidate parents; the test checks no tie")
	}
}

// FuzzBuildTreeEquivalence rounds every link delay of a private world to
// a multiple of quantum/8 ms (quantum 0 keeps the built delays), which
// makes equally short paths common, and compares BuildTree from src with
// the container/heap reference. Multiples of 1/8 ms add up exactly, so
// the ties are exact.
func FuzzBuildTreeEquivalence(f *testing.F) {
	w := privateWorld(f)
	n := w.NumRouters()
	orig := make([][]float64, n)
	for r := range orig {
		for _, h := range w.Neighbors(netsim.RouterID(r)) {
			orig[r] = append(orig[r], h.OneWayMs)
		}
	}
	f.Add(uint16(0), uint8(0))
	f.Add(uint16(7), uint8(8))
	f.Add(uint16(311), uint8(1))
	f.Add(uint16(1000), uint8(40))
	f.Add(uint16(65535), uint8(255))
	f.Fuzz(func(t *testing.T, src uint16, quantum uint8) {
		step := float64(quantum) / 8
		for r := range orig {
			hops := w.Neighbors(netsim.RouterID(r))
			for i := range hops {
				hops[i].OneWayMs = orig[r][i]
				if quantum > 0 {
					hops[i].OneWayMs = math.Round(orig[r][i]/step) * step
				}
			}
		}
		checkAgainstReference(t, w, netsim.RouterID(int(src)%n))
	})
}

// TestBuildTreeAllocs bounds BuildTree's allocations: the tree's four
// arrays, the Tree itself and the queue's growth, with nothing per
// relaxation.
func TestBuildTreeAllocs(t *testing.T) {
	def, err := netsim.Build(netsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		w    *netsim.World
	}{{"150-AS test world", testWorld(t)}, {"default world", def}} {
		src := 0
		allocs := testing.AllocsPerRun(20, func() {
			BuildTree(tc.w, netsim.RouterID(src))
			src = (src + 97) % tc.w.NumRouters()
		})
		if allocs > 20 {
			t.Errorf("%s (%d routers): BuildTree makes %.0f allocations, want at most 20", tc.name, tc.w.NumRouters(), allocs)
		}
	}
}
