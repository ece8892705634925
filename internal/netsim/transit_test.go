package netsim

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"routergeo/internal/gazetteer"
	"routergeo/internal/geo"
	"routergeo/internal/ipx"
)

// The oracles below are createLinks' two transit scans before the
// transit index replaced them. The index must give exactly their
// answers.

// scanNearestProvider is the nearest branch of pickProvider as a scan
// over every transit AS, in order: each finds its PoP nearest p (the
// first on a tie), and the first AS at the least distance wins. It
// returns the winner's position and the routers of its nearest PoP.
func scanNearestProvider(w *World, transit []int, p geo.Coordinate) (int, []RouterID) {
	bestPos, bestD := -1, 0.0
	var best []RouterID
	for pos, ai := range transit {
		as := &w.ASes[ai]
		pop, d := -1, -1.0
		for pi := range as.PoPs {
			if dp := as.PoPs[pi].City.Coord.DistanceKm(p); d < 0 || dp < d {
				pop, d = pi, dp
			}
		}
		if bestPos < 0 || d < bestD {
			bestPos, bestD, best = pos, d, as.PoPs[pop].Routers
		}
	}
	return bestPos, best
}

// scanPeerPairs is the peering scan's distance test over every pair of
// transit positions i < j: the pairs whose closest PoP cities lie within
// radiusKm of each other.
func scanPeerPairs(w *World, transit []int, radiusKm float64) [][2]int {
	var out [][2]int
	for i := range transit {
		for j := i + 1; j < len(transit); j++ {
			d := math.Inf(1)
			for _, pa := range w.ASes[transit[i]].PoPs {
				for _, pb := range w.ASes[transit[j]].PoPs {
					d = min(d, pa.City.Coord.DistanceKm(pb.City.Coord))
				}
			}
			if d <= radiusKm {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

// defaultWorlds caches one default-size world per seed.
var defaultWorlds = map[int64]*World{}

func buildDefault(t testing.TB, seed int64) *World {
	t.Helper()
	if w, ok := defaultWorlds[seed]; ok {
		return w
	}
	cfg := DefaultConfig()
	cfg.Seed = seed
	w, err := Build(cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defaultWorlds[seed] = w
	return w
}

func transitIndexOf(w *World) *transitIndex {
	return newTransitIndex(w, peeringRadiusKm)
}

// providerChecker compares the nearest branch of pickProvider with the
// scan: the index must find the scan's winning position, and the branch
// must pick a router of the winner's nearest PoP with exactly one Intn,
// leaving the rng where a twin that draws that Intn leaves it.
type providerChecker struct {
	t       testing.TB
	w       *World
	tx      *transitIndex
	queries int
	ties    int // queries where ASes at different positions tie for nearest
}

func (c *providerChecker) check(p geo.Coordinate, seed int64) {
	c.t.Helper()
	c.queries++
	wantPos, rs := scanNearestProvider(c.w, c.tx.transit, p)
	pos := c.tx.nearestPosition(p)
	if pos != wantPos {
		c.t.Fatalf("nearestPosition(%v) = %d; scan gives %d", p, pos, wantPos)
	}
	b := &builder{w: c.w, rng: rand.New(rand.NewSource(seed))}
	twin := rand.New(rand.NewSource(seed))
	if got, want := b.nearestRouterInAS(c.tx.transit[pos], p), rs[twin.Intn(len(rs))]; got != want {
		c.t.Fatalf("nearest provider of %v, seed %d = router %d; want %d of the winner's nearest PoP %v", p, seed, got, want, rs)
	}
	if got, want := b.rng.Int63(), twin.Int63(); got != want {
		c.t.Fatalf("nearest provider of %v, seed %d leaves the rng at %d; one Intn leaves it at %d", p, seed, got, want)
	}
	// A tie: another AS's PoP is as near as the winner's.
	win := &c.w.ASes[c.tx.transit[wantPos]]
	d := win.PoPs[nearestPoP(win, p)].City.Coord.DistanceKm(p)
	for pos, ai := range c.tx.transit {
		as := &c.w.ASes[ai]
		if pos != wantPos && as.PoPs[nearestPoP(as, p)].City.Coord.DistanceKm(p) == d {
			c.ties++
			break
		}
	}
}

func TestNearestProviderMatchesScan(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		w := buildDefault(t, seed)
		c := &providerChecker{t: t, w: w, tx: transitIndexOf(w)}
		rng := rand.New(rand.NewSource(seed))
		q := int64(0)
		next := func() int64 { q++; return q }

		// Every stub PoP's core router, where pickProvider asks.
		for ai := range w.ASes {
			if as := &w.ASes[ai]; !as.Transit {
				for _, pop := range as.PoPs {
					c.check(w.Routers[pop.Routers[0]].Coord, next())
				}
			}
		}
		// Every transit city's centre, where PoPs of several ASes tie at
		// 0 km.
		for _, coord := range c.tx.coords {
			c.check(coord, next())
		}
		// Random points over the whole globe.
		for i := 0; i < 500; i++ {
			c.check(randomCoord(rng), next())
		}
		if c.ties == 0 {
			t.Fatalf("seed %d: no query had a tie between ASes", seed)
		}
		t.Logf("seed %d: %d queries equal to the scan, %d with ASes tied for nearest", seed, c.queries, c.ties)
	}
}

// TestNearestProviderTieBetweenCities moves two transit cities of a
// copied world to mirror points across the equator, equally far from a
// point on it, and checks that the first position owning either wins,
// as the scan's strict < makes it, whichever side it sits on.
func TestNearestProviderTieBetweenCities(t *testing.T) {
	w := buildDefault(t, 1)
	tx := transitIndexOf(w)
	// Two cities whose first positions differ.
	a, b := -1, -1
	for k := range tx.first {
		if a < 0 {
			a = k
		} else if tx.first[k] != tx.first[a] {
			b = k
			break
		}
	}
	if b < 0 {
		t.Fatal("every transit city has the same first position")
	}
	p := geo.Coordinate{Lat: 0, Lon: -30} // mid-Atlantic, far from every city
	north, south := geo.Coordinate{Lat: 0.01, Lon: -30}, geo.Coordinate{Lat: -0.01, Lon: -30}
	if north.DistanceKm(p) != south.DistanceKm(p) {
		t.Fatal("mirror points are not equally far from p")
	}
	for _, place := range [][2]geo.Coordinate{{north, south}, {south, north}} {
		cp := *w
		cp.ASes = slices.Clone(w.ASes)
		for ai := range cp.ASes {
			cp.ASes[ai].PoPs = slices.Clone(cp.ASes[ai].PoPs)
			for pi := range cp.ASes[ai].PoPs {
				switch pop := &cp.ASes[ai].PoPs[pi]; pop.City.Coord {
				case tx.coords[a]:
					pop.City.Coord = place[0]
				case tx.coords[b]:
					pop.City.Coord = place[1]
				}
			}
		}
		cp.idx = newRouterIndex(&cp)
		c := &providerChecker{t: t, w: &cp, tx: transitIndexOf(&cp)}
		for s := int64(0); s < 8; s++ {
			c.check(p, s)
		}
		if want := min(tx.first[a], tx.first[b]); c.tx.nearestPosition(p) != int(want) {
			t.Fatalf("cities at %v: nearest position %d, want %d", place, c.tx.nearestPosition(p), want)
		}
		if c.ties == 0 {
			t.Fatalf("cities at %v: the two cities did not tie", place)
		}
	}
}

func TestPeeringCandidatesCoverScan(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		w := buildDefault(t, seed)
		tx := transitIndexOf(w)
		within := scanPeerPairs(w, tx.transit, peeringRadiusKm)
		if len(within) == 0 {
			t.Fatalf("seed %d: no transit pair within the peering radius", seed)
		}
		cands := make([][]int, len(tx.transit))
		total := 0
		for i := range tx.transit {
			cands[i] = tx.peers(w, i, nil)
			total += len(cands[i])
			for k, j := range cands[i] {
				if j <= i || (k > 0 && j <= cands[i][k-1]) {
					t.Fatalf("seed %d: candidates of %d are not ascending above it: %v", seed, i, cands[i])
				}
			}
		}
		for _, pair := range within {
			if _, ok := slices.BinarySearch(cands[pair[0]], pair[1]); !ok {
				t.Fatalf("seed %d: pair %v is within the radius but not a candidate", seed, pair)
			}
		}
		n := len(tx.transit)
		t.Logf("seed %d: %d candidate pairs of %d, covering all %d within the radius", seed, total, n*(n-1)/2, len(within))
	}
}

// FuzzNearestProviderEquivalence pins the nearest branch of
// pickProvider to the scan on the cached default seed-1 world, for any
// point and rng seed.
func FuzzNearestProviderEquivalence(f *testing.F) {
	w := buildDefault(f, 1)
	tx := transitIndexOf(w)
	f.Add(50.11, 8.68, int64(1))
	f.Add(-33.87, 151.21, int64(2))
	f.Add(tx.coords[0].Lat, tx.coords[0].Lon, int64(3))
	f.Add(0.0, -30.0, int64(4))
	f.Fuzz(func(t *testing.T, lat, lon float64, seed int64) {
		if math.IsNaN(lat) || math.IsInf(lat, 0) || math.IsNaN(lon) || math.IsInf(lon, 0) {
			t.Skip("not a coordinate")
		}
		p := geo.Coordinate{Lat: math.Mod(lat, 90), Lon: math.Mod(lon, 180)}
		c := &providerChecker{t: t, w: w, tx: tx}
		c.check(p, seed)
	})
}

// TestBlockCitiesCountEveryInterface recounts every routed /24 from the
// interfaces themselves: their IDs in ascending order, and a tally of
// their cities keyed by (Country, Name) whose keys are looked up in the
// gazetteer. Every block query must agree with the recount on the
// seed-1 and seed-7 default worlds, a majority tie going to the smaller
// key, and BlockMajorityCityAt with the recount over CityAt.
func TestBlockCitiesCountEveryInterface(t *testing.T) {
	type key = [2]string // Country, Name
	compareKeys := func(a, b key) int {
		return cmp.Or(strings.Compare(a[0], b[0]), strings.Compare(a[1], b[1]))
	}
	tally := func(ids []IfaceID, cityOf func(IfaceID) gazetteer.City) map[key]int {
		counts := map[key]int{}
		for _, id := range ids {
			c := cityOf(id)
			counts[key{c.Country, c.Name}]++
		}
		return counts
	}
	ties := 0
	for _, seed := range []int64{1, 7} {
		w := buildDefault(t, seed)
		e := w.Evolve(rand.New(rand.NewSource(seed)), DefaultEvolutionParams())
		lookup := func(k key) gazetteer.City {
			c, ok := w.Gaz.City(k[0], k[1])
			if !ok {
				t.Fatalf("seed %d: city %q not in the gazetteer", seed, k)
			}
			return c
		}
		majority := func(counts map[key]int) gazetteer.City {
			var best key
			bestN := 0
			for k, n := range counts {
				if n > bestN || (n == bestN && compareKeys(k, best) < 0) {
					best, bestN = k, n
				}
			}
			for k, n := range counts {
				if n == bestN && k != best {
					ties++
					break
				}
			}
			return lookup(best)
		}

		ids := map[ipx.Addr][]IfaceID{}
		var bases []ipx.Addr
		for i := range w.Interfaces {
			ifc := &w.Interfaces[i]
			base := ifc.Addr.Slash24().Base
			if ids[base] == nil {
				bases = append(bases, base)
			}
			ids[base] = append(ids[base], IfaceID(i))
			if r, ok := w.DestRouterFor(ifc.Addr); !ok || r != ifc.Router {
				t.Fatalf("seed %d: DestRouterFor(%v) = %v, %v; want its router %v", seed, ifc.Addr, r, ok, ifc.Router)
			}
		}
		slices.Sort(bases)
		routed := w.RoutedSlash24s()
		if len(routed) != len(bases) {
			t.Fatalf("seed %d: %d routed /24s, recount has %d", seed, len(routed), len(bases))
		}
		for i, p := range routed {
			if p.Bits != 24 || p.Base != bases[i] {
				t.Fatalf("seed %d: RoutedSlash24s()[%d] = %v, want %v/24", seed, i, p, bases[i])
			}
		}

		for _, base := range bases {
			blk := ids[base]
			if got := w.BlockIfaces(base); !slices.Equal(got, blk) {
				t.Fatalf("seed %d, block %v: BlockIfaces = %v, want %v", seed, base, got, blk)
			}
			if r, ok := w.DestRouterFor(base); !ok || r != w.Interfaces[blk[0]].Router {
				t.Fatalf("seed %d: DestRouterFor(%v) = %v, %v; want %v, the router of interface %d",
					seed, base, r, ok, w.Interfaces[blk[0]].Router, blk[0])
			}

			counts := tally(blk, w.CityOf)
			keys := make([]key, 0, len(counts))
			for k := range counts {
				keys = append(keys, k)
			}
			slices.SortFunc(keys, compareKeys)
			want := make([]gazetteer.City, len(keys))
			for i, k := range keys {
				want[i] = lookup(k)
			}
			if got := w.BlockCities(base); !slices.Equal(got, want) {
				t.Fatalf("seed %d, block %v: BlockCities = %v, want %v", seed, base, got, want)
			}
			if got := w.BlockCityCount(base); got != len(counts) {
				t.Fatalf("seed %d, block %v: BlockCityCount = %d, want %d", seed, base, got, len(counts))
			}
			if got, ok := w.BlockMajorityCity(base); !ok || got != majority(counts) {
				t.Fatalf("seed %d, block %v: BlockMajorityCity = %v, %v; want %v of %v",
					seed, base, got, ok, majority(counts), counts)
			}
			for _, months := range []float64{0, 4, 8, 1e6} {
				at := tally(blk, func(id IfaceID) gazetteer.City { return e.CityAt(id, months) })
				if got, ok := e.BlockMajorityCityAt(base, months); !ok || got != majority(at) {
					t.Fatalf("seed %d, block %v: BlockMajorityCityAt(%v) = %v, %v; want %v of %v",
						seed, base, months, got, ok, majority(at), at)
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no block has a tied majority, so the tie-break went unchecked")
	}
}
