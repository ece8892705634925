package netsim

import (
	"math"
	"math/bits"
	"math/rand"
	"sort"

	"routergeo/internal/geo"
)

// transitIndex answers createLinks' two questions about the transit
// tier by PoP city instead of by scanning every transit AS: which
// transit ASes may peer with a given one, and which transit PoP lies
// nearest a point. Both answers, and every draw createLinks makes from
// them, equal those of the scans over all transit ASes the index
// replaced.
//
// Positions number the transit ASes in AS order (transit[pos] is the AS
// index); cities use the router index's numbering. Every PoP of a city
// shares the centre the router index records, and the distances below
// are the same DistanceKm of the same two coordinates the scans
// computed, so the only slack needed is the bound's, boundSlackKm.
type transitIndex struct {
	transit []int     // position -> AS index
	popCity [][]int32 // AS index -> PoP index -> city
	// atCity lists, per city, the positions with a PoP there in
	// ascending order; nil for a city without a transit PoP.
	atCity [][]int32
	// near lists, per transit city, the transit cities within
	// peeringRadiusKm + boundSlackKm of it, itself included.
	near [][]int32
	// The transit cities by ascending latitude, with their centres and
	// the first position with a PoP in each.
	lats   []float64
	coords []geo.Coordinate
	first  []int32
	// maxRouters is the largest router count of any transit PoP.
	maxRouters int
	mark       []uint64 // peers' scratch bitset over positions
}

// degToRad converts the latitude gaps of the index's lower bound.
const degToRad = math.Pi / 180

func newTransitIndex(w *World, popCity [][]int32, radiusKm float64) *transitIndex {
	tx := &transitIndex{popCity: popCity, atCity: make([][]int32, len(w.idx.cities))}
	var cities []int32
	for ai := range w.ASes {
		as := &w.ASes[ai]
		if !as.Transit {
			continue
		}
		pos := int32(len(tx.transit))
		tx.transit = append(tx.transit, ai)
		for pi, c := range popCity[ai] {
			if tx.atCity[c] == nil {
				cities = append(cities, c)
			}
			tx.atCity[c] = append(tx.atCity[c], pos)
			tx.maxRouters = max(tx.maxRouters, len(as.PoPs[pi].Routers))
		}
	}
	tx.mark = make([]uint64, (len(tx.transit)+63)/64)

	sort.Slice(cities, func(i, j int) bool {
		return w.idx.cities[cities[i]].centre.Lat < w.idx.cities[cities[j]].centre.Lat
	})
	for _, c := range cities {
		centre := w.idx.cities[c].centre
		tx.lats = append(tx.lats, centre.Lat)
		tx.coords = append(tx.coords, centre)
		tx.first = append(tx.first, tx.atCity[c][0])
	}

	// No two cities whose latitudes lie further apart than the radius
	// can be within it: a great-circle distance is at least
	// EarthRadiusKm times the latitude difference.
	tx.near = make([][]int32, len(w.idx.cities))
	limit := radiusKm + boundSlackKm
	for i, ci := range cities {
		for j := i; j < len(cities) && geo.EarthRadiusKm*(tx.lats[j]-tx.lats[i])*degToRad <= limit; j++ {
			if tx.coords[i].DistanceKm(tx.coords[j]) > limit {
				continue
			}
			cj := cities[j]
			tx.near[ci] = append(tx.near[ci], cj)
			if j != i {
				tx.near[cj] = append(tx.near[cj], ci)
			}
		}
	}
	return tx
}

// peers appends to out, in ascending order, the positions j > i with a
// PoP in a city within peeringRadiusKm + boundSlackKm of one of i's PoP
// cities. Every other j > i has all its PoPs beyond the radius of all of
// i's, so the peering scan's distance test failed for it without a draw.
func (tx *transitIndex) peers(i int, out []int) []int {
	clear(tx.mark)
	for _, c := range tx.popCity[tx.transit[i]] {
		for _, nc := range tx.near[c] {
			at := tx.atCity[nc]
			for k := len(at) - 1; k >= 0 && int(at[k]) > i; k-- {
				tx.mark[at[k]/64] |= 1 << (at[k] % 64)
			}
		}
	}
	for wi, word := range tx.mark {
		for ; word != 0; word &= word - 1 {
			out = append(out, wi*64+bits.TrailingZeros64(word))
		}
	}
	return out
}

// nearestPosition returns the position of the transit AS the scan over
// every transit AS chose for p: the one owning the PoP that minimizes
// (centre.DistanceKm(p), position). It visits the cities outward from
// p's latitude, nearest latitude first, and stops once the latitude
// bound exceeds the best distance plus boundSlackKm.
func (tx *transitIndex) nearestPosition(p geo.Coordinate) int {
	hi := sort.SearchFloat64s(tx.lats, p.Lat)
	lo := hi - 1
	best, bestD := int32(-1), math.Inf(1)
	for {
		gapUp, gapDown := math.Inf(1), math.Inf(1)
		if hi < len(tx.lats) {
			gapUp = tx.lats[hi] - p.Lat
		}
		if lo >= 0 {
			gapDown = p.Lat - tx.lats[lo]
		}
		k := hi
		if gapUp <= gapDown {
			hi++
		} else {
			k, gapUp = lo, gapDown
			lo--
		}
		if math.IsInf(gapUp, 1) || geo.EarthRadiusKm*gapUp*degToRad > bestD+boundSlackKm {
			return int(best)
		}
		d := tx.coords[k].DistanceKm(p)
		if d < bestD || (d == bestD && tx.first[k] < best) {
			best, bestD = tx.first[k], d
		}
	}
}

// nearestRouter returns what the nearest-provider scan returned: a
// router of the transit PoP nearest p, drawn from the rng exactly as the
// scan drew it. The scan called nearestRouterInAS for every transit AS
// in order, so each AS drew rng.Intn(n) over the routers of its own
// nearest PoP, and the nearest AS's draw picked the router.
//
// Intn(n) is Int31n(n) for these n: one Int31 v, redrawn only while v
// exceeds 2³¹−1 − 2³¹ mod n when n is not a power of two, then v % n.
// Every value it redraws lies above 2³¹−1 − maxRouters, so an AS other
// than the nearest needs its own nearest PoP (and so its n) only when v
// does; otherwise its draw is the one Int31, whatever n is.
func (tx *transitIndex) nearestRouter(w *World, rng *rand.Rand, p geo.Coordinate) RouterID {
	win := tx.nearestPosition(p)
	cutoff := int32(math.MaxInt32 - tx.maxRouters)
	var r RouterID
	for pos, ai := range tx.transit {
		v := rng.Int31()
		if pos != win && v <= cutoff {
			continue
		}
		rs := w.ASes[ai].PoPs[nearestPoP(&w.ASes[ai], p)].Routers
		if k := int31nFrom(rng, v, int32(len(rs))); pos == win {
			r = rs[k]
		}
	}
	return r
}

// int31nFrom finishes rng.Int31n(n) given the first Int31 that call
// draws, drawing again only where Int31n would.
func int31nFrom(rng *rand.Rand, v, n int32) int32 {
	if n&(n-1) == 0 {
		return v & (n - 1)
	}
	top := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	for v > top {
		v = rng.Int31()
	}
	return v % n
}

// nearestPoP returns the index of the AS's PoP whose city centre is
// nearest p, the first one on a tie.
func nearestPoP(as *AS, p geo.Coordinate) int {
	best, bestD := 0, as.PoPs[0].City.Coord.DistanceKm(p)
	for pi := 1; pi < len(as.PoPs); pi++ {
		if d := as.PoPs[pi].City.Coord.DistanceKm(p); d < bestD {
			best, bestD = pi, d
		}
	}
	return best
}
