package netsim

import (
	"math"

	"routergeo/internal/gazetteer"
	"routergeo/internal/geo"
)

// boundSlackKm absorbs the rounding of DistanceKm when a city's lower
// bound is compared with the best distance found so far. The
// haversine's rounding error stays far below it unless p lies within
// tens of metres of a city centre's antipode, so outside that case no
// city that could hold the answer is skipped.
const boundSlackKm = 1e-6

// routerIndex answers nearest-router questions by PoP city instead of
// by scanning every router. It is built once per World and only read
// afterwards, so concurrent queries are safe.
//
// Each city keeps its centre and a radius: the largest computed
// DistanceKm(centre, router) over its routers. By the triangle
// inequality no router of the city is nearer to p than
// DistanceKm(p, centre) − radius, so a query visits the city with the
// lowest bound first and afterwards only cities whose bound is within
// the best distance plus boundSlackKm. Candidates are compared with the
// exact r.Coord.DistanceKm(p), and the pair (distance, RouterID)
// decides, so the lowest ID wins a tie: the answer an ID-order scan
// with a strict < gives.
type routerIndex struct {
	cities    []indexCity                   // by gazetteer.CityID; empty where no router sits
	byCountry map[string][]gazetteer.CityID // ISO2 -> cities with routers, in first-router order
	all       []gazetteer.CityID            // every city with routers, in first-router order
}

// indexCity holds one PoP city's routers: routers[:transit] belong to
// transit ASes and routers[transit:] to stubs, each part in ascending
// RouterID order. coords is parallel to routers.
type indexCity struct {
	centre  geo.Coordinate
	radius  float64
	routers []RouterID
	coords  []geo.Coordinate
	transit int
}

// routerKind selects which of a city's routers a query considers.
type routerKind uint8

const (
	anyRouter routerKind = iota
	transitRouter
	stubRouter
)

func (c *indexCity) span(k routerKind) (lo, hi int) {
	switch k {
	case transitRouter:
		return 0, c.transit
	case stubRouter:
		return c.transit, len(c.routers)
	}
	return 0, len(c.routers)
}

// newRouterIndex groups w's routers by PoP city, listing the cities in
// the order their first router appears.
func newRouterIndex(w *World) *routerIndex {
	ix := &routerIndex{
		cities:    make([]indexCity, gazetteer.NumCities()+1),
		byCountry: make(map[string][]gazetteer.CityID),
	}
	stubs := make([][]RouterID, len(ix.cities)) // per city, appended after its transit routers
	for i := range w.Routers {
		r := &w.Routers[i]
		as := &w.ASes[r.AS]
		city := &as.PoPs[r.PoP].City
		c := &ix.cities[city.ID]
		if len(c.routers) == 0 && len(stubs[city.ID]) == 0 {
			ix.byCountry[city.Country] = append(ix.byCountry[city.Country], city.ID)
			ix.all = append(ix.all, city.ID)
			c.centre = city.Coord
		}
		if as.Transit {
			c.routers = append(c.routers, r.ID)
		} else {
			stubs[city.ID] = append(stubs[city.ID], r.ID)
		}
		if d := c.centre.DistanceKm(r.Coord); d > c.radius {
			c.radius = d
		}
	}
	for _, ci := range ix.all {
		c := &ix.cities[ci]
		c.transit = len(c.routers)
		c.routers = append(c.routers, stubs[ci]...)
		c.coords = make([]geo.Coordinate, len(c.routers))
		for j, id := range c.routers {
			c.coords[j] = w.Routers[id].Coord
		}
	}
	return ix
}

// nearest returns the router of kind k nearest to p among the given
// cities. ok is false when none of them has such a router.
func (ix *routerIndex) nearest(p geo.Coordinate, cities []gazetteer.CityID, k routerKind) (RouterID, bool) {
	var buf [128]float64 // more cities than any one country has
	bounds := buf[:0]
	first := -1
	for i, ci := range cities {
		c := &ix.cities[ci]
		lb := math.Inf(1)
		if lo, hi := c.span(k); lo < hi {
			lb = p.DistanceKm(c.centre) - c.radius
			if first < 0 || lb < bounds[first] {
				first = i
			}
		}
		bounds = append(bounds, lb)
	}
	if first < 0 {
		return -1, false
	}
	best, bestD := ix.cities[cities[first]].nearest(p, k, -1, 0)
	for i, ci := range cities {
		if i != first && bounds[i] <= bestD+boundSlackKm {
			best, bestD = ix.cities[ci].nearest(p, k, best, bestD)
		}
	}
	return best, true
}

// nearest folds the city's routers of kind k into the running minimum
// (best, bestD) of (distance to p, RouterID); best < 0 means none yet.
func (c *indexCity) nearest(p geo.Coordinate, k routerKind, best RouterID, bestD float64) (RouterID, float64) {
	lo, hi := c.span(k)
	for j := lo; j < hi; j++ {
		d := c.coords[j].DistanceKm(p)
		if best < 0 || d < bestD || (d == bestD && c.routers[j] < best) {
			best, bestD = c.routers[j], d
		}
	}
	return best, bestD
}

// NearestRouter returns the router closest to p, optionally restricted to
// a country (iso2 != ""). Used to attach measurement probes to the
// topology. Falls back to the global nearest if the country has no
// routers. ok is false only for an empty world. Ties go to the lowest
// RouterID.
func (w *World) NearestRouter(p geo.Coordinate, iso2 string) (RouterID, bool) {
	if cities, ok := w.idx.byCountry[iso2]; ok {
		return w.idx.nearest(p, cities, anyRouter)
	}
	return w.idx.nearest(p, w.idx.all, anyRouter)
}

// NearestTransitInCity returns the transit router closest to p among
// those whose PoP is in city. ok is false when the city has no transit
// PoP. Ties go to the lowest RouterID.
func (w *World) NearestTransitInCity(p geo.Coordinate, city gazetteer.City) (RouterID, bool) {
	best, _ := w.idx.cities[city.ID].nearest(p, transitRouter, -1, 0)
	return best, best >= 0
}

// NearestStubInCountry returns the router of a stub AS closest to p
// among those whose PoP is in the country. ok is false when the country
// has no stub router. Ties go to the lowest RouterID.
func (w *World) NearestStubInCountry(p geo.Coordinate, iso2 string) (RouterID, bool) {
	return w.idx.nearest(p, w.idx.byCountry[iso2], stubRouter)
}
