package gazetteer

import (
	"math/rand"
	"strings"
	"testing"

	"routergeo/internal/geo"
)

func TestTableIntegrity(t *testing.T) {
	g := New()

	seenISO2 := map[string]bool{}
	for _, c := range g.Countries() {
		if len(c.ISO2) != 2 || c.ISO2 != strings.ToUpper(c.ISO2) {
			t.Errorf("country %q: bad ISO2 %q", c.Name, c.ISO2)
		}
		if len(c.ISO3) != 3 {
			t.Errorf("country %q: bad ISO3 %q", c.Name, c.ISO3)
		}
		if seenISO2[c.ISO2] {
			t.Errorf("duplicate country ISO2 %q", c.ISO2)
		}
		seenISO2[c.ISO2] = true
		if !c.Centroid.Valid() {
			t.Errorf("country %q: invalid centroid %v", c.Name, c.Centroid)
		}
		if c.RIR == geo.RIRUnknown {
			t.Errorf("country %q: unknown RIR", c.Name)
		}
	}

	seenCity := map[string]bool{}
	seenIATA := map[string]string{}
	for _, c := range g.Cities() {
		if !seenISO2[c.Country] {
			t.Errorf("city %q references unknown country %q", c.Name, c.Country)
		}
		key := c.Country + "/" + c.Name
		if seenCity[key] {
			t.Errorf("duplicate city %q", key)
		}
		seenCity[key] = true
		if !c.Coord.Valid() || c.Coord.IsZero() {
			t.Errorf("city %q: invalid coordinates %v", key, c.Coord)
		}
		if c.IATA != "" {
			if len(c.IATA) != 3 || c.IATA != strings.ToUpper(c.IATA) {
				t.Errorf("city %q: bad IATA %q", key, c.IATA)
			}
			if prev, dup := seenIATA[c.IATA]; dup {
				t.Errorf("IATA %q assigned to both %q and %q", c.IATA, prev, key)
			}
			seenIATA[c.IATA] = key
		}
		if c.Class < Mega || c.Class > Small {
			t.Errorf("city %q: bad population class %d", key, c.Class)
		}
	}
}

func TestCityCoordinatesPlausible(t *testing.T) {
	// Every city must be within ~3000 km of its country's centroid. That is a
	// loose sanity bound (Russia/US are huge) but catches sign errors and
	// swapped lat/lon, the classic data-entry bugs.
	g := New()
	for _, c := range g.Cities() {
		country, ok := g.Country(c.Country)
		if !ok {
			continue
		}
		limit := 3000.0
		switch c.Country {
		case "US": // Honolulu and Anchorage are far from the CONUS centroid
			limit = 6500
		case "RU", "CA", "AU", "BR", "CN":
			limit = 5500
		}
		if d := c.Coord.DistanceKm(country.Centroid); d > limit {
			t.Errorf("city %s/%s is %.0f km from the %s centroid", c.Country, c.Name, d, country.Name)
		}
	}
}

func TestScaleOfTables(t *testing.T) {
	g := New()
	if n := len(g.Countries()); n < 70 {
		t.Errorf("only %d countries embedded; want >= 70 for regional analyses", n)
	}
	if n := len(g.Cities()); n < 200 {
		t.Errorf("only %d cities embedded; want >= 200", n)
	}
	// Every RIR needs at least a handful of countries for the regional
	// breakdowns (Table 1, Figures 3 and 5).
	perRIR := map[geo.RIR]int{}
	for _, c := range countryTable {
		perRIR[c.RIR]++
	}
	for _, r := range geo.RIRs {
		if n := perRIR[r]; n < 3 {
			t.Errorf("RIR %v has only %d countries", r, n)
		}
	}
	// The paper's Figure 4 needs its 20 named countries in the world.
	for _, cc := range []string{"US", "DE", "GB", "IT", "FR", "NL", "JP", "CA", "ES", "SG",
		"CH", "RU", "PL", "BG", "AU", "CZ", "SE", "RO", "UA", "HK"} {
		if _, ok := g.Country(cc); !ok {
			t.Errorf("missing Figure-4 country %s", cc)
		}
		if len(g.citiesByCC[cc]) == 0 {
			t.Errorf("Figure-4 country %s has no cities", cc)
		}
	}
}

func TestLookups(t *testing.T) {
	g := New()

	c, ok := g.Country("us")
	if !ok || c.Name != "United States" || c.RIR != geo.ARIN {
		t.Fatalf("Country(us) = %+v, %v", c, ok)
	}
	if _, ok := g.Country("XX"); ok {
		t.Error("Country(XX) should not exist")
	}

	city, ok := g.City("US", "dallas")
	if !ok || city.IATA != "DFW" {
		t.Fatalf("City(US, dallas) = %+v, %v", city, ok)
	}
	if _, ok := g.City("DE", "Dallas"); ok {
		t.Error("Dallas should not be in Germany")
	}

	if g.RIROf("JP") != geo.APNIC {
		t.Error("Japan should be in APNIC")
	}
	if g.RIROf("ZZ") != geo.RIRUnknown {
		t.Error("unknown country should map to RIRUnknown")
	}
}

func TestCityNameCollisionAcrossCountries(t *testing.T) {
	// Birmingham exists in both US and GB; lookups must disambiguate by
	// country, mirroring the paper's GeoNames matching that includes region
	// and country (§4).
	g := New()
	us, okUS := g.City("US", "Birmingham")
	gb, okGB := g.City("GB", "Birmingham")
	if !okUS || !okGB {
		t.Fatal("expected Birmingham in both US and GB")
	}
	if us.Coord.DistanceKm(gb.Coord) < 5000 {
		t.Errorf("US and GB Birmingham suspiciously close: %v vs %v", us.Coord, gb.Coord)
	}
}

func TestNearest(t *testing.T) {
	g := New()
	// A point 10 km east of Frankfurt should resolve to Frankfurt.
	fra, _ := g.City("DE", "Frankfurt")
	near := fra.Coord.Offset(10, 90)
	city, d := g.Nearest(near)
	if city.Name != "Frankfurt" {
		t.Errorf("Nearest = %s, want Frankfurt", city.Name)
	}
	if d < 9 || d > 11 {
		t.Errorf("Nearest distance = %.1f, want ~10", d)
	}
}

func TestNearCountryCentroid(t *testing.T) {
	g := New()
	// The paper's German example: N51 E9.
	if c, ok := g.NearCountryCentroid(geo.Coordinate{Lat: 51.0, Lon: 9.0}, 5); !ok || c.ISO2 != "DE" {
		t.Errorf("N51 E9 should match the German centroid, got %+v %v", c, ok)
	}
	// Berlin is not near any centroid within 5 km.
	berlin, _ := g.City("DE", "Berlin")
	if _, ok := g.NearCountryCentroid(berlin.Coord, 5); ok {
		t.Error("Berlin should not be within 5 km of a country centroid")
	}
}

// nearCountryCentroidScan is the plain scan NearCountryCentroid must
// agree with: a full haversine to every centroid, in table order.
func nearCountryCentroidScan(g *Gazetteer, p geo.Coordinate, withinKm float64) (Country, bool) {
	for _, c := range g.countries {
		if c.Centroid.WithinKm(p, withinKm) {
			return c, true
		}
	}
	return Country{}, false
}

// TestNearCountryCentroidMatchesScan checks that the latitude pre-filter
// never changes the answer: on random points, and on points 1 m inside
// and 1 m outside each centroid's radius. The second gazetteer adds
// centroids at the poles and on both sides of the antimeridian, where
// longitude degrees shrink to nothing or wrap.
func TestNearCountryCentroidMatchesScan(t *testing.T) {
	real := New()
	edge := &Gazetteer{countries: append([]Country{
		{ISO2: "N1", Centroid: geo.Coordinate{Lat: 89.999, Lon: 10}},
		{ISO2: "N2", Centroid: geo.Coordinate{Lat: 90, Lon: 0}},
		{ISO2: "S1", Centroid: geo.Coordinate{Lat: -89.98, Lon: -170}},
		{ISO2: "E1", Centroid: geo.Coordinate{Lat: -16.5, Lon: 179.999}},
		{ISO2: "W1", Centroid: geo.Coordinate{Lat: -16.52, Lon: -180}},
		{ISO2: "W2", Centroid: geo.Coordinate{Lat: 65, Lon: -179.99}},
	}, countryTable...)}
	rng := rand.New(rand.NewSource(5))
	checked := 0
	check := func(g *Gazetteer, p geo.Coordinate, km float64) {
		t.Helper()
		got, gotOK := g.NearCountryCentroid(p, km)
		want, wantOK := nearCountryCentroidScan(g, p, km)
		if got != want || gotOK != wantOK {
			t.Fatalf("NearCountryCentroid(%v, %v) = %s %v, scan says %s %v", p, km, got.ISO2, gotOK, want.ISO2, wantOK)
		}
		checked++
	}
	for _, g := range []*Gazetteer{real, edge} {
		for _, km := range []float64{0.5, 5, 50, 500} {
			for i := 0; i < 2000; i++ {
				p := geo.Coordinate{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180}
				check(g, p, km)
			}
			for _, c := range g.countries {
				for _, d := range []float64{km - 0.001, km + 0.001} {
					for _, bearing := range []float64{0, 45, 90, 180, 270, 359.9} {
						check(g, c.Centroid.Offset(d, bearing), km)
					}
				}
			}
		}
	}
	if checked < 20000 {
		t.Fatalf("checked only %d points", checked)
	}
}

func TestSampleCityRespectsCountry(t *testing.T) {
	g := New()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		c := g.SampleCity(rng, "JP")
		if c.Country != "JP" {
			t.Fatalf("SampleCity(JP) returned %s/%s", c.Country, c.Name)
		}
	}
}

func TestSampleCityWeighting(t *testing.T) {
	// Mega cities should be sampled noticeably more often than small ones.
	g := New()
	rng := rand.New(rand.NewSource(8))
	counts := map[string]int{}
	for i := 0; i < 20000; i++ {
		c := g.SampleCity(rng, "US")
		counts[c.Name]++
	}
	if counts["New York"] < counts["San Luis Obispo"] {
		t.Errorf("weighting broken: NYC %d <= SLO %d", counts["New York"], counts["San Luis Obispo"])
	}
}

func TestSampleCountryRespectsRIR(t *testing.T) {
	g := New()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		c := g.SampleCountry(rng, geo.AFRINIC)
		if c.RIR != geo.AFRINIC {
			t.Fatalf("SampleCountry(AFRINIC) returned %s (%v)", c.ISO2, c.RIR)
		}
	}
}

func TestSampleCityPanicsOnUnknownCountry(t *testing.T) {
	g := New()
	rng := rand.New(rand.NewSource(10))
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unknown country")
		}
	}()
	g.SampleCity(rng, "ZZ")
}

func TestSampleDeterminism(t *testing.T) {
	g := New()
	a := g.SampleCity(rand.New(rand.NewSource(42)), "")
	b := g.SampleCity(rand.New(rand.NewSource(42)), "")
	if a != b {
		t.Errorf("same seed gave different cities: %v vs %v", a, b)
	}
}
