package traceroute

import (
	"container/heap"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"routergeo/internal/geo"
	"routergeo/internal/netsim"
	"routergeo/internal/rtt"
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
	checkTree(t, w, BuildTree(w, src))
}

// checkTree fails t unless got answers Parent, ParentIface, DistMs and
// HopCount exactly as referenceTree from got.Src does for every router.
func checkTree(t *testing.T, w *netsim.World, got *Tree) {
	t.Helper()
	src := got.Src
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
// makes equally short paths common, then stretches each link by a factor
// drawn from stretch (stretchDelays; 0 stretches nothing), and compares
// BuildTree from src with the container/heap reference. Multiples of
// 1/8 ms add up exactly, so the ties are exact and send BuildTree to its
// heap; stretched delays tie nowhere and keep it on the bucket queue.
func FuzzBuildTreeEquivalence(f *testing.F) {
	w := privateWorld(f)
	n := w.NumRouters()
	orig := make([][]float64, n)
	for r := range orig {
		for _, h := range w.Neighbors(netsim.RouterID(r)) {
			orig[r] = append(orig[r], h.OneWayMs)
		}
	}
	f.Add(uint16(0), uint8(0), int64(0))
	f.Add(uint16(7), uint8(8), int64(0))
	f.Add(uint16(311), uint8(1), int64(0))
	f.Add(uint16(1000), uint8(40), int64(0))
	f.Add(uint16(65535), uint8(255), int64(0))
	f.Add(uint16(stretchSrc), uint8(0), stretchSeed)
	f.Fuzz(func(t *testing.T, src uint16, quantum uint8, stretch int64) {
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
		if stretch != 0 {
			stretchDelays(w, stretch)
		}
		checkAgainstReference(t, w, netsim.RouterID(int(src)%n))
	})
}

// stretchSrc and stretchSeed are FuzzBuildTreeEquivalence's seed entry
// with stretched delays, which TestBucketTreeTakesStretchedDelays checks
// takes the bucket queue.
const (
	stretchSrc        = 500
	stretchSeed int64 = 1
)

// stretchDelays multiplies each link's delay, in both directions, by a
// factor in [1, 2) drawn from seed in link order. The delays stay
// symmetric and at least rtt.LinkFixedMs, and no two paths tie.
func stretchDelays(w *netsim.World, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	factor := make([]float64, w.NumLinks())
	for i := range factor {
		factor[i] = 1 + rng.Float64()
	}
	for r := 0; r < w.NumRouters(); r++ {
		hops := w.Neighbors(netsim.RouterID(r))
		for i := range hops {
			hops[i].OneWayMs *= factor[w.Interfaces[hops[i].PeerIface].Link]
		}
	}
}

// TestBucketTreesOnDefaultWorlds checks that the bucket queue builds the
// trees of every 50th router of the seed-1 and seed-7 default worlds
// without falling back to the heap, and that each is the reference's.
func TestBucketTreesOnDefaultWorlds(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		cfg := netsim.DefaultConfig()
		cfg.Seed = seed
		w, err := netsim.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < w.NumRouters(); r += 50 {
			tree, ok := bucketTree(w, netsim.RouterID(r))
			if !ok {
				t.Fatalf("seed %d, src %d: the bucket queue gave up", seed, r)
			}
			checkTree(t, w, tree)
		}
	}
}

// TestBucketTreeOnlyGivesUpOnTies sets every delay of a private world to
// 1 ms and checks that the bucket queue gives up exactly for the sources
// whose reference tree has a router with two equally short candidate
// parents, as TestTreesMatchReferenceWithUnitDelays counts them, and
// builds the reference's tree for the others.
func TestBucketTreeOnlyGivesUpOnTies(t *testing.T) {
	w := privateWorld(t)
	for r := 0; r < w.NumRouters(); r++ {
		for i, hops := 0, w.Neighbors(netsim.RouterID(r)); i < len(hops); i++ {
			hops[i].OneWayMs = 1
		}
	}
	n := w.NumRouters()
	gaveUp := 0
	for r := 0; r < n; r += n/120 + 1 {
		src := netsim.RouterID(r)
		ref := referenceTree(w, src)
		tied := false
		for v := 0; v < n && !tied; v++ {
			parents := 0
			for _, h := range w.Neighbors(netsim.RouterID(v)) {
				if ref.distMs[h.Peer]+1 == ref.distMs[v] {
					parents++
				}
			}
			tied = parents > 1
		}
		tree, ok := bucketTree(w, src)
		if ok == tied {
			t.Fatalf("src %d: bucket queue ok = %v, but a tie exists = %v", src, ok, tied)
		}
		if ok {
			checkTree(t, w, tree)
		} else {
			gaveUp++
		}
	}
	if gaveUp == 0 {
		t.Fatal("the bucket queue never gave up; the test checks no tie")
	}
}

// TestBucketTreeTakesStretchedDelays stretches a private world's delays
// as FuzzBuildTreeEquivalence's stretchSeed entry does and checks that
// the bucket queue builds that entry's tree, and those of 113 other
// sources, without falling back, so the fuzzer drives the bucket queue.
func TestBucketTreeTakesStretchedDelays(t *testing.T) {
	w := privateWorld(t)
	stretchDelays(w, stretchSeed)
	n := w.NumRouters()
	srcs := []int{stretchSrc % n}
	for r := 0; r < n; r += n/120 + 1 {
		srcs = append(srcs, r)
	}
	for _, r := range srcs {
		tree, ok := bucketTree(w, netsim.RouterID(r))
		if !ok {
			t.Fatalf("src %d: the bucket queue gave up on stretched delays", r)
		}
		checkTree(t, w, tree)
	}
}

// TestBucketTreeGivesUpOnLongLinks makes every link ten times slower, so
// that the longest ones span more buckets than the ring holds, and checks
// that the bucket queue gives up and BuildTree still builds the
// reference's tree.
func TestBucketTreeGivesUpOnLongLinks(t *testing.T) {
	w := privateWorld(t)
	longest := 0.0
	for r := 0; r < w.NumRouters(); r++ {
		for i, hops := 0, w.Neighbors(netsim.RouterID(r)); i < len(hops); i++ {
			hops[i].OneWayMs *= 10
			longest = max(longest, hops[i].OneWayMs)
		}
	}
	if longest*bucketsPerMs < ringBuckets {
		t.Fatalf("the longest link (%.1f ms) fits the ring; the test checks nothing", longest)
	}
	if _, ok := bucketTree(w, 0); ok {
		t.Fatal("the bucket queue built a tree over links longer than its ring")
	}
	checkAgainstReference(t, w, 0)
}

// TestRingHoldsLongestLink checks that the bucket ring spans twice the
// longest link netsim can build, one between antipodes, and that the
// buckets are at most half as wide as the shortest, so no built world
// falls back and neither do the delays FuzzBuildTreeEquivalence
// stretches.
func TestRingHoldsLongestLink(t *testing.T) {
	if longest := rtt.LinkOneWayMs(math.Pi * geo.EarthRadiusKm); 2*longest*bucketsPerMs > ringBuckets-1 {
		t.Errorf("twice an antipodal link (%.2f ms) spans %.0f buckets; the ring holds links of up to %d",
			longest, 2*longest*bucketsPerMs, ringBuckets-1)
	}
	if shortest := rtt.LinkOneWayMs(0); shortest*bucketsPerMs < 2 {
		t.Errorf("a 0 km link (%.3f ms) spans %.2f buckets, want at least 2", shortest, shortest*bucketsPerMs)
	}
}

// TestBuildTreeConcurrent builds trees from 8 goroutines over one world,
// as par.Each's workers do, and checks each against a serial build: the
// goroutines share bucketPool.
func TestBuildTreeConcurrent(t *testing.T) {
	w := testWorld(t)
	const goroutines, perG = 8, 12
	serial := make([]*Tree, goroutines*perG)
	for i := range serial {
		serial[i] = BuildTree(w, netsim.RouterID(i*7%w.NumRouters()))
	}
	got := make([]*Tree, len(serial))
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(got); i += goroutines {
				got[i] = BuildTree(w, netsim.RouterID(i*7%w.NumRouters()))
			}
		}()
	}
	wg.Wait()
	for i, want := range serial {
		g := got[i]
		if g.Src != want.Src || !slices.Equal(g.parent, want.parent) || !slices.Equal(g.parentIface, want.parentIface) ||
			!slices.Equal(g.distMs, want.distMs) || !slices.Equal(g.hops, want.hops) {
			t.Fatalf("tree from %d built concurrently differs from the serial build", want.Src)
		}
	}
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
