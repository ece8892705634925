package netsim

import (
	"math"
	"math/rand"
	"testing"

	"routergeo/internal/gazetteer"
	"routergeo/internal/geo"
)

// The oracles below are the linear scans the router index replaced. The
// index must give exactly their answers, ties included.

// scanNearestRouter scans every router for the one closest to p,
// optionally restricted to a country, falling back to the global nearest
// when the country has no routers.
func scanNearestRouter(w *World, p geo.Coordinate, iso2 string) (RouterID, bool) {
	best, bestD := RouterID(-1), 0.0
	bestAny, bestAnyD := RouterID(-1), 0.0
	for i := range w.Routers {
		r := &w.Routers[i]
		d := r.Coord.DistanceKm(p)
		if bestAny < 0 || d < bestAnyD {
			bestAny, bestAnyD = r.ID, d
		}
		if iso2 != "" && w.ASes[r.AS].PoPs[r.PoP].City.Country != iso2 {
			continue
		}
		if best < 0 || d < bestD {
			best, bestD = r.ID, d
		}
	}
	if best >= 0 {
		return best, true
	}
	return bestAny, bestAny >= 0
}

// scanNearestFunc scans every router for the one closest to p among
// those accepted by the predicate.
func scanNearestFunc(w *World, p geo.Coordinate, accept func(RouterID) bool) (RouterID, bool) {
	best, bestD := RouterID(-1), 0.0
	for i := range w.Routers {
		r := &w.Routers[i]
		if !accept(r.ID) {
			continue
		}
		d := r.Coord.DistanceKm(p)
		if best < 0 || d < bestD {
			best, bestD = r.ID, d
		}
	}
	return best, best >= 0
}

func scanTransitInCity(w *World, p geo.Coordinate, country, name string) (RouterID, bool) {
	return scanNearestFunc(w, p, func(id RouterID) bool {
		rt := &w.Routers[id]
		as := &w.ASes[rt.AS]
		c := as.PoPs[rt.PoP].City
		return as.Transit && c.Country == country && c.Name == name
	})
}

func scanStubInCountry(w *World, p geo.Coordinate, iso2 string) (RouterID, bool) {
	return scanNearestFunc(w, p, func(id RouterID) bool {
		rt := &w.Routers[id]
		as := &w.ASes[rt.AS]
		return !as.Transit && as.PoPs[rt.PoP].City.Country == iso2
	})
}

// indexChecker compares every index query with its scan oracle and
// counts the queries that found nothing.
type indexChecker struct {
	t                      testing.TB
	w                      *World
	queries                int
	noTransit, noStub      int
	fallbacks, inCountries int
}

func (c *indexChecker) nearestRouter(p geo.Coordinate, iso2 string) {
	c.t.Helper()
	c.queries++
	got, gotOK := c.w.NearestRouter(p, iso2)
	want, wantOK := scanNearestRouter(c.w, p, iso2)
	if got != want || gotOK != wantOK {
		c.t.Fatalf("NearestRouter(%v, %q) = %d,%v; scan gives %d,%v", p, iso2, got, gotOK, want, wantOK)
	}
	if _, ok := c.w.idx.byCountry[iso2]; ok {
		c.inCountries++
	} else if iso2 != "" {
		c.fallbacks++
	}
}

func (c *indexChecker) transitInCity(p geo.Coordinate, city gazetteer.City) {
	c.t.Helper()
	c.queries++
	got, gotOK := c.w.NearestTransitInCity(p, city)
	want, wantOK := scanTransitInCity(c.w, p, city.Country, city.Name)
	if got != want || gotOK != wantOK {
		c.t.Fatalf("NearestTransitInCity(%v, %s/%s) = %d,%v; scan gives %d,%v", p, city.Country, city.Name, got, gotOK, want, wantOK)
	}
	if !gotOK {
		c.noTransit++
	}
}

func (c *indexChecker) stubInCountry(p geo.Coordinate, iso2 string) {
	c.t.Helper()
	c.queries++
	got, gotOK := c.w.NearestStubInCountry(p, iso2)
	want, wantOK := scanStubInCountry(c.w, p, iso2)
	if got != want || gotOK != wantOK {
		c.t.Fatalf("NearestStubInCountry(%v, %q) = %d,%v; scan gives %d,%v", p, iso2, got, gotOK, want, wantOK)
	}
	if !gotOK {
		c.noStub++
	}
}

// randomCoord draws a point uniformly over the sphere.
func randomCoord(rng *rand.Rand) geo.Coordinate {
	return geo.Coordinate{
		Lat: math.Asin(2*rng.Float64()-1) * 180 / math.Pi,
		Lon: rng.Float64()*360 - 180,
	}
}

func TestRouterIndexMatchesScan(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		w := buildSmall(t, seed)
		rng := rand.New(rand.NewSource(seed))
		c := &indexChecker{t: t, w: w}

		// A gazetteer country without routers exercises the fallback.
		countries := w.Gaz.Countries()
		empty := ""
		for _, cc := range countries {
			if _, ok := w.idx.byCountry[cc.ISO2]; !ok {
				empty = cc.ISO2
				break
			}
		}
		if empty == "" {
			t.Fatalf("seed %d: every gazetteer country has routers; no fallback to check", seed)
		}

		// Every router coordinate, in its own country; every tenth also
		// unrestricted and in the country without routers. (The scan
		// oracle costs about 0.1 ms a query, so the test stays near 1 s.)
		// The memo tables rely on every PoP of a city sharing the centre
		// the index records.
		for i := range w.Routers {
			r := &w.Routers[i]
			city := w.ASes[r.AS].PoPs[r.PoP].City
			if got := w.idx.cities[city.ID].centre; got != city.Coord {
				t.Fatalf("router %d: index centre %v, PoP city %v", i, got, city.Coord)
			}
			c.nearestRouter(r.Coord, city.Country)
			if i%10 == 0 {
				c.nearestRouter(r.Coord, "")
				c.nearestRouter(r.Coord, empty)
			}
		}
		// Every gazetteer city centre and a jittered point near each, with
		// both attachment queries.
		for _, city := range w.Gaz.Cities() {
			near := city.Coord.Offset(rng.Float64()*30, rng.Float64()*360)
			for _, p := range []geo.Coordinate{city.Coord, near} {
				c.nearestRouter(p, city.Country)
				c.transitInCity(p, city)
				c.stubInCountry(p, city.Country)
			}
		}
		// Random points over the whole globe, cycling through every
		// country and "", with the attachment queries for the nearest
		// city.
		for i := 0; i < 300; i++ {
			p := randomCoord(rng)
			cc := ""
			if i%2 == 0 {
				cc = countries[i/2%len(countries)].ISO2
			}
			city, _ := w.Gaz.Nearest(p)
			c.nearestRouter(p, cc)
			c.transitInCity(p, city)
			c.stubInCountry(p, cc)
		}
		if c.noTransit == 0 || c.noStub == 0 || c.fallbacks == 0 || c.inCountries == 0 {
			t.Fatalf("seed %d: a case went unchecked: %d cities without transit, %d countries without stubs, %d fallbacks, %d in-country queries",
				seed, c.noTransit, c.noStub, c.fallbacks, c.inCountries)
		}
		t.Logf("seed %d: %d queries equal to the scans", seed, c.queries)
	}
}

// TestRouterIndexTieGoesToLowestID moves routers of different PoPs onto
// one coordinate in a copy of a small world and checks that the lowest
// RouterID wins, as the ID-order scan's strict < makes it.
func TestRouterIndexTieGoesToLowestID(t *testing.T) {
	w := buildSmall(t, 1)
	rng := rand.New(rand.NewSource(3))
	var pairs [][2]RouterID

	// Within one city the index lists transit routers before stubs, so a
	// stub with a lower ID than a transit router is met second.
	for _, city := range w.idx.cities {
		transit, stub := city.routers[:city.transit], city.routers[city.transit:]
		if len(transit) > 0 && len(stub) > 0 && stub[0] < transit[len(transit)-1] {
			pairs = append(pairs, [2]RouterID{stub[0], transit[len(transit)-1]})
			break
		}
	}
	if len(pairs) == 0 {
		t.Fatal("no city lists a stub router below a transit router's ID")
	}
	// Random pairs from different PoPs, each in both directions.
	for len(pairs) < 41 {
		a := RouterID(rng.Intn(len(w.Routers)))
		b := RouterID(rng.Intn(len(w.Routers)))
		ra, rb := &w.Routers[a], &w.Routers[b]
		if ra.AS == rb.AS && ra.PoP == rb.PoP {
			continue
		}
		pairs = append(pairs, [2]RouterID{a, b}, [2]RouterID{b, a})
	}

	for _, pair := range pairs {
		// Move the second router onto the first.
		moved, onto := pair[1], pair[0]
		cp := *w
		cp.Routers = append([]Router(nil), w.Routers...)
		cp.Routers[moved].Coord = cp.Routers[onto].Coord
		cp.idx = newRouterIndex(&cp)

		p := cp.Routers[onto].Coord
		want := min(moved, onto)
		c := &indexChecker{t: t, w: &cp}
		c.nearestRouter(p, "")
		if got, _ := cp.NearestRouter(p, ""); got != want {
			t.Fatalf("routers %d and %d at %v: NearestRouter gives %d, want %d", onto, moved, p, got, want)
		}
	}
}

// FuzzNearestRouterEquivalence pins the router index to the linear scans
// on a cached small world: NearestRouter for a country (or "" or a code
// with no routers), NearestStubInCountry for the same code, and
// NearestTransitInCity for the gazetteer city nearest the point.
func FuzzNearestRouterEquivalence(f *testing.F) {
	w := buildSmall(f, 1)
	countries := w.Gaz.Countries()
	f.Add(50.11, 8.68, uint8(0))
	f.Add(-33.87, 151.21, uint8(60))
	f.Add(40.71, -74.01, uint8(len(countries)))
	f.Add(0.0, 0.0, uint8(len(countries)+1))
	f.Fuzz(func(t *testing.T, lat, lon float64, country uint8) {
		if math.IsNaN(lat) || math.IsInf(lat, 0) || math.IsNaN(lon) || math.IsInf(lon, 0) {
			t.Skip("not a coordinate")
		}
		p := geo.Coordinate{Lat: math.Mod(lat, 90), Lon: math.Mod(lon, 180)}
		iso2 := "ZZ" // no routers: NearestRouter falls back to the global nearest
		switch i := int(country) % (len(countries) + 2); {
		case i < len(countries):
			iso2 = countries[i].ISO2
		case i == len(countries):
			iso2 = ""
		}
		city, _ := w.Gaz.Nearest(p)
		c := &indexChecker{t: t, w: w}
		c.nearestRouter(p, iso2)
		c.stubInCountry(p, iso2)
		c.transitInCity(p, city)
	})
}
