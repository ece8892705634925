package traceroute

import (
	"sync"

	"routergeo/internal/netsim"
	"routergeo/internal/rtt"
)

// The bucket queue (Dial's algorithm). A reached router waits in the
// bucket of its tentative distance, and a bucket is half as wide as the
// shortest link delay netsim builds, so settling a router never lowers
// the distance of another in its own bucket. The buckets are settled in
// ascending order and each bucket's routers in any order, with no
// comparisons.
//
// The tree is the heap's whenever every router has exactly one shortest
// path predecessor: both queues then settle each router at its final
// distance, add the same floats to the same settled distances and keep
// the one relaxation that reaches each router's distance. Pop order picks
// the parent only on a tie, so bucketTree gives up at the first
// relaxation that equals a router's distance. It also gives up at one
// that would land in the bucket being settled, an earlier one or past
// the ring, which only a link delay outside netsim's range can cause
// (tests rewrite delays in place). Every relaxation is checked, so a
// delay outside the range costs a fallback to the heap, never a wrong
// tree.

// bucketsPerMs makes a bucket half as wide as rtt.LinkFixedMs, the least
// any netsim link costs, so a relaxation lands at least two buckets past
// the settled router's and float rounding cannot bring it back.
const bucketsPerMs = 2 / rtt.LinkFixedMs

// ringBuckets is the number of buckets in the ring. A relaxation lands
// less than one link delay past the bucket being settled, so the ring
// holds every queued router while no link spans more than ringBuckets-1
// buckets (327 ms). The longest link netsim can build joins antipodes:
// rtt.LinkOneWayMs of half the Earth's circumference, 150 ms. The ring
// holds twice that (TestRingHoldsLongestLink), so the delays
// FuzzBuildTreeEquivalence stretches up to 2x still take the bucket
// queue; a tree visits only the buckets up to its farthest router, so
// the larger ring costs memory (128 KiB per pooled scratch), not time.
const ringBuckets = 1 << 15

// bucketScratch is a bucket queue's working memory. head[k%ringBuckets]
// indexes the first entry of bucket k, entries link each bucket's list
// through next, and -1 ends a list. Between uses every list is empty.
type bucketScratch struct {
	head    [ringBuckets]int32
	entries []bucketEntry
}

// bucketEntry queues router at dist. A router whose distance falls again
// gets a new entry; the old one is skipped when its bucket is settled.
type bucketEntry struct {
	dist   float64
	router netsim.RouterID
	next   int32
}

// bucketPool recycles the ring and the entries across trees, which
// par.Each workers build concurrently.
var bucketPool = sync.Pool{New: func() any {
	s := new(bucketScratch)
	for i := range s.head {
		s.head[i] = -1
	}
	return s
}}

// bucketTree builds src's shortest-delay tree on the bucket queue. ok is
// false when it gave up; the tree is then partly built.
func bucketTree(w *netsim.World, src netsim.RouterID) (t *Tree, ok bool) {
	n := w.NumRouters()
	t = newTree(n, src)
	dist := t.distMs
	s := bucketPool.Get().(*bucketScratch)
	if cap(s.entries) < 2*n {
		// A tree queues 1.06-1.13 entries per router (150 to 3,600
		// ASes), so one allocation with room to spare serves a fresh
		// scratch, where appending from empty would take a dozen.
		s.entries = make([]bucketEntry, 0, 2*n)
	}
	head := &s.head
	ents := append(s.entries[:0], bucketEntry{dist: 0, router: src, next: -1})
	head[0] = 0
	last := 0 // the farthest bucket that holds an entry
	cur := 0
	ok = true
settle:
	for ; cur <= last; cur++ {
		i := head[cur%ringBuckets]
		if i < 0 {
			continue
		}
		head[cur%ringBuckets] = -1
		for i >= 0 {
			e := ents[i]
			i = e.next
			if e.dist != dist[e.router] {
				continue // superseded by a shorter path
			}
			for _, h := range w.Neighbors(e.router) {
				nd := e.dist + h.OneWayMs
				if nd >= dist[h.Peer] {
					if nd == dist[h.Peer] {
						ok = false // a tie: only pop order can pick the parent
						break settle
					}
					continue
				}
				f := nd * bucketsPerMs
				if !(f < float64(cur+ringBuckets)) || int(f) <= cur {
					ok = false // a link too short or too long for the ring
					break settle
				}
				k := int(f)
				dist[h.Peer] = nd
				t.parent[h.Peer] = e.router
				t.parentIface[h.Peer] = h.PeerIface
				t.hops[h.Peer] = t.hops[e.router] + 1
				ents = append(ents, bucketEntry{dist: nd, router: h.Peer, next: head[k%ringBuckets]})
				head[k%ringBuckets] = int32(len(ents) - 1)
				last = max(last, k)
			}
		}
	}
	for ; cur <= last; cur++ { // empty what a fallback left queued
		head[cur%ringBuckets] = -1
	}
	s.entries = ents
	bucketPool.Put(s)
	return t, ok
}
