package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Reference distances computed from published great-circle calculators,
// rounded to the nearest kilometre. Tolerance is 0.5% to absorb the
// spherical-vs-ellipsoidal difference.
func TestDistanceKnownPairs(t *testing.T) {
	tests := []struct {
		name   string
		a, b   Coordinate
		wantKm float64
	}{
		{"london-paris", Coordinate{51.5074, -0.1278}, Coordinate{48.8566, 2.3522}, 344},
		{"nyc-la", Coordinate{40.7128, -74.0060}, Coordinate{34.0522, -118.2437}, 3936},
		{"sydney-tokyo", Coordinate{-33.8688, 151.2093}, Coordinate{35.6762, 139.6503}, 7823},
		{"equator-degree", Coordinate{0, 0}, Coordinate{0, 1}, 111.2},
		{"dallas-miami", Coordinate{32.7767, -96.7970}, Coordinate{25.7617, -80.1918}, 1787},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.a.DistanceKm(tt.b)
			if math.Abs(got-tt.wantKm) > tt.wantKm*0.005+0.5 {
				t.Errorf("DistanceKm = %.1f, want ~%.1f", got, tt.wantKm)
			}
		})
	}
}

func TestDistanceIdentity(t *testing.T) {
	c := Coordinate{52.52, 13.405}
	if d := c.DistanceKm(c); d != 0 {
		t.Errorf("distance to self = %v, want 0", d)
	}
}

func TestDistanceAntipodal(t *testing.T) {
	a := Coordinate{0, 0}
	b := Coordinate{0, 180}
	want := math.Pi * EarthRadiusKm
	if got := a.DistanceKm(b); math.Abs(got-want) > 1 {
		t.Errorf("antipodal distance = %.1f, want %.1f", got, want)
	}
}

func randomCoordinate(r *rand.Rand) Coordinate {
	// Sample uniformly on the sphere so polar coordinates are not
	// over-represented.
	u := r.Float64()*2 - 1 // cos(colatitude)
	lat := math.Asin(u) * 180 / math.Pi
	lon := r.Float64()*360 - 180
	return Coordinate{Lat: lat, Lon: lon}
}

func TestDistanceSymmetryProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func() bool {
		a, b := randomCoordinate(r), randomCoordinate(r)
		d1, d2 := a.DistanceKm(b), b.DistanceKm(a)
		return math.Abs(d1-d2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDistanceTriangleInequalityProperty(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := func() bool {
		a, b, c := randomCoordinate(r), randomCoordinate(r), randomCoordinate(r)
		return a.DistanceKm(c) <= a.DistanceKm(b)+b.DistanceKm(c)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDistanceBoundedProperty(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	max := math.Pi * EarthRadiusKm
	f := func() bool {
		a, b := randomCoordinate(r), randomCoordinate(r)
		d := a.DistanceKm(b)
		return d >= 0 && d <= max+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestOffsetRoundTripDistanceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	f := func() bool {
		c := randomCoordinate(r)
		dist := r.Float64() * 2000 // up to 2000 km
		bearing := r.Float64() * 360
		o := c.Offset(dist, bearing)
		return math.Abs(c.DistanceKm(o)-dist) < 0.5 && o.Valid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestOffsetZeroDistance(t *testing.T) {
	c := Coordinate{45, 45}
	o := c.Offset(0, 123)
	if c.DistanceKm(o) > 1e-6 {
		t.Errorf("offset by 0 km moved point to %v", o)
	}
}

func TestOffsetCardinalDirections(t *testing.T) {
	c := Coordinate{10, 20}
	north := c.Offset(100, 0)
	if north.Lat <= c.Lat {
		t.Errorf("north offset did not increase latitude: %v", north)
	}
	if math.Abs(north.Lon-c.Lon) > 0.01 {
		t.Errorf("north offset changed longitude: %v", north)
	}
	east := c.Offset(100, 90)
	if east.Lon <= c.Lon {
		t.Errorf("east offset did not increase longitude: %v", east)
	}
}

func TestWithinKm(t *testing.T) {
	london := Coordinate{51.5074, -0.1278}
	paris := Coordinate{48.8566, 2.3522}
	if london.WithinKm(paris, 40) {
		t.Error("London should not be within 40 km of Paris")
	}
	if !london.WithinKm(paris, 400) {
		t.Error("London should be within 400 km of Paris")
	}
}

func TestCoordinateValid(t *testing.T) {
	tests := []struct {
		c    Coordinate
		want bool
	}{
		{Coordinate{0, 0}, true},
		{Coordinate{90, 180}, true},
		{Coordinate{-90, -180}, true},
		{Coordinate{91, 0}, false},
		{Coordinate{0, 181}, false},
		{Coordinate{math.NaN(), 0}, false},
	}
	for _, tt := range tests {
		if got := tt.c.Valid(); got != tt.want {
			t.Errorf("Valid(%v) = %v, want %v", tt.c, got, tt.want)
		}
	}
}

func TestCoordinateIsZero(t *testing.T) {
	if !(Coordinate{}).IsZero() {
		t.Error("zero value should report IsZero")
	}
	if (Coordinate{0.0001, 0}).IsZero() {
		t.Error("non-zero coordinate reported IsZero")
	}
}

func TestCoordinateString(t *testing.T) {
	c := Coordinate{51.50740001, -0.1278}
	if got, want := c.String(), "51.5074,-0.1278"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestRIRsOrderMatchesTable1(t *testing.T) {
	want := []string{"ARIN", "APNIC", "AFRINIC", "LACNIC", "RIPENCC"}
	for i, r := range RIRs {
		if r.String() != want[i] {
			t.Errorf("RIRs[%d] = %s, want %s", i, r, want[i])
		}
	}
	if RIRUnknown.String() != "UNKNOWN" {
		t.Errorf("RIRUnknown.String() = %q", RIRUnknown.String())
	}
}

// TestSampleRIRHonorsWeights checks that SampleRIR never draws a
// registry of zero or missing weight and draws in proportion otherwise.
func TestSampleRIRHonorsWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	weights := map[RIR]float64{ARIN: 3, LACNIC: 1}
	counts := map[RIR]int{}
	const n = 4000
	for i := 0; i < n; i++ {
		counts[SampleRIR(rng, weights)]++
	}
	if counts[ARIN]+counts[LACNIC] != n {
		t.Fatalf("draws outside the weighted registries: %v", counts)
	}
	if share := float64(counts[ARIN]) / n; share < 0.7 || share > 0.8 {
		t.Errorf("ARIN share %.3f, want about 0.75", share)
	}
}
