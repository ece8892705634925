// Package gazetteer is the reproduction's stand-in for the GeoNames
// geographical database the paper uses as a third-party coordinate
// reference (§4), and doubles as the world model every simulator draws
// from: countries with ISO codes, RIR membership and "default country
// coordinates" (the country-centroid positions the paper's probe filter
// looks for, §3.2), and cities with coordinates, IATA airport codes and a
// coarse population class.
//
// All data is embedded; the package has no I/O. Lookups are case-insensitive
// on names and exact on ISO codes.
package gazetteer

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"routergeo/internal/geo"
)

// Country describes one country known to the gazetteer.
type Country struct {
	ISO2     string         // ISO 3166-1 alpha-2, e.g. "US"
	ISO3     string         // ISO 3166-1 alpha-3, e.g. "USA"
	Name     string         // English short name
	Centroid geo.Coordinate // the "default country coordinates" (§3.2)
	RIR      geo.RIR        // registry that serves this country
}

// PopulationClass buckets cities by rough size; it drives sampling weights
// in the world builder (bigger cities host more routers, probes and PoPs).
type PopulationClass uint8

const (
	// Mega cities: >5M metro population (weight 8).
	Mega PopulationClass = iota + 1
	// Large cities: 1-5M (weight 4).
	Large
	// Medium cities: 200k-1M (weight 2).
	Medium
	// Small cities: <200k (weight 1).
	Small
)

// Weight returns the sampling weight used when the world builder picks
// cities for PoPs and probes.
func (p PopulationClass) Weight() int {
	switch p {
	case Mega:
		return 8
	case Large:
		return 4
	case Medium:
		return 2
	default:
		return 1
	}
}

// City describes one city known to the gazetteer.
type City struct {
	Name    string          // English name, unique within a country here
	Country string          // ISO2 of the containing country
	Coord   geo.Coordinate  // city-centre coordinates
	IATA    string          // primary airport code ("" if none embedded)
	Class   PopulationClass // rough size bucket
}

// Gazetteer is an immutable, indexed view over the embedded world data.
type Gazetteer struct {
	countries  []Country
	cities     []City
	allCities  []int // 0..len(cities)-1, SampleCity's pool without a country
	weights    []int // SampleCountry's weight per country, parallel to countries
	byISO2     map[string]int
	cityKey    map[string]int // "cc/lowername" -> index into cities
	citiesByCC map[string][]int
}

// New returns a gazetteer over the embedded country and city tables.
// The returned value is safe for concurrent use.
func New() *Gazetteer {
	g := &Gazetteer{
		countries:  countryTable,
		cities:     cityTable,
		byISO2:     make(map[string]int, len(countryTable)),
		cityKey:    make(map[string]int, len(cityTable)),
		citiesByCC: make(map[string][]int, len(countryTable)),
	}
	for i, c := range g.countries {
		g.byISO2[c.ISO2] = i
	}
	for i, c := range g.cities {
		g.allCities = append(g.allCities, i)
		g.cityKey[cityKey(c.Country, c.Name)] = i
		g.citiesByCC[c.Country] = append(g.citiesByCC[c.Country], i)
	}
	for _, c := range g.countries {
		g.weights = append(g.weights, len(g.citiesByCC[c.ISO2])+1)
	}
	return g
}

func cityKey(cc, name string) string {
	return cc + "/" + strings.ToLower(name)
}

// Countries returns all countries, ordered by ISO2;
// TestRouterIndexMatchesScan picks a country without routers from it.
func (g *Gazetteer) Countries() []Country {
	out := make([]Country, len(g.countries))
	copy(out, g.countries)
	sort.Slice(out, func(i, j int) bool { return out[i].ISO2 < out[j].ISO2 })
	return out
}

// Cities returns a copy of every embedded city.
func (g *Gazetteer) Cities() []City {
	out := make([]City, len(g.cities))
	copy(out, g.cities)
	return out
}

// Country looks a country up by ISO2 code; TestCityCoordinatesPlausible
// checks every city against its country's centroid through it.
func (g *Gazetteer) Country(iso2 string) (Country, bool) {
	i, ok := g.byISO2[strings.ToUpper(iso2)]
	if !ok {
		return Country{}, false
	}
	return g.countries[i], true
}

// RIROf returns the registry serving the country with the given ISO2 code,
// or geo.RIRUnknown for countries the gazetteer does not know;
// TestFleetRegionalSkew counts probes per registry through it.
func (g *Gazetteer) RIROf(iso2 string) geo.RIR {
	c, ok := g.Country(iso2)
	if !ok {
		return geo.RIRUnknown
	}
	return c.RIR
}

// City looks a city up by country code and name (case-insensitive).
// This mirrors the paper's GeoNames matching, which includes region and
// country because city names collide across the world (§4).
func (g *Gazetteer) City(iso2, name string) (City, bool) {
	i, ok := g.cityKey[cityKey(strings.ToUpper(iso2), name)]
	if !ok {
		return City{}, false
	}
	return g.cities[i], true
}

// Nearest returns the embedded city closest to p and its distance in km.
// It scans linearly; the table is small enough (a few hundred entries) that
// anything cleverer would be noise.
func (g *Gazetteer) Nearest(p geo.Coordinate) (City, float64) {
	best := -1
	bestD := 0.0
	for i := range g.cities {
		d := g.cities[i].Coord.DistanceKm(p)
		if best < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return g.cities[best], bestD
}

// NearCountryCentroid reports whether p lies within withinKm of any
// country's default coordinates — the check the paper uses to disqualify
// probes parked on default country coordinates (§3.2). The first match in
// table order wins.
func (g *Gazetteer) NearCountryCentroid(p geo.Coordinate, withinKm float64) (Country, bool) {
	// A great-circle distance is at least the latitude arc between its
	// ends, so a centroid whose latitude alone is farther than withinKm
	// cannot match. The 1 km slack covers the haversine's rounding.
	const kmPerDegLat = math.Pi / 180 * geo.EarthRadiusKm
	maxDLat := (withinKm + 1) / kmPerDegLat
	for i := range g.countries {
		c := &g.countries[i]
		if math.Abs(c.Centroid.Lat-p.Lat) > maxDLat {
			continue
		}
		if c.Centroid.WithinKm(p, withinKm) {
			return *c, true
		}
	}
	return Country{}, false
}

// SampleCity picks a city at random, weighted by population class, optionally
// restricted to one country (iso2 != ""). It panics if the restriction
// matches no city, which indicates a programming error in the caller.
func (g *Gazetteer) SampleCity(rng *rand.Rand, iso2 string) City {
	pool := g.allCities
	if iso2 != "" {
		pool = g.citiesByCC[strings.ToUpper(iso2)]
	}
	if len(pool) == 0 {
		panic(fmt.Sprintf("gazetteer: no cities for country %q", iso2))
	}
	total := 0
	for _, i := range pool {
		total += g.cities[i].Class.Weight()
	}
	n := rng.Intn(total)
	for _, i := range pool {
		n -= g.cities[i].Class.Weight()
		if n < 0 {
			return g.cities[i]
		}
	}
	return g.cities[pool[len(pool)-1]]
}

// SampleCountry picks a country at random, weighted by how many cities it
// has embedded (a crude but serviceable proxy for Internet footprint),
// optionally restricted to one registry (r != geo.RIRUnknown).
func (g *Gazetteer) SampleCountry(rng *rand.Rand, r geo.RIR) Country {
	in := func(i int) bool { return r == geo.RIRUnknown || g.countries[i].RIR == r }
	total := 0
	for i := range g.countries {
		if in(i) {
			total += g.weights[i]
		}
	}
	if total == 0 {
		panic(fmt.Sprintf("gazetteer: no countries in RIR %v", r))
	}
	n := rng.Intn(total)
	for i := range g.countries {
		if in(i) {
			if n -= g.weights[i]; n < 0 {
				return g.countries[i]
			}
		}
	}
	panic("unreachable")
}
