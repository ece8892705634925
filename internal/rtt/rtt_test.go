package rtt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"routergeo/internal/geo"
)

func coord(lat, lon float64) geo.Coordinate { return geo.Coordinate{Lat: lat, Lon: lon} }

func TestMinRTTKnownDistance(t *testing.T) {
	// 200 km apart -> 2 ms RTT floor.
	a := coord(0, 0)
	b := coord(0, 200/111.195) // ~200 km along the equator
	got := MinRTTMs(a, b)
	if got < 1.9 || got > 2.1 {
		t.Errorf("MinRTTMs for ~200 km = %.3f ms, want ~2", got)
	}
}

func TestMaxDistanceForRTT(t *testing.T) {
	// The paper's rule: 0.5 ms RTT bounds distance at 50 km (§2.3.2).
	if got := MaxDistanceKmForRTT(0.5); got != 50 {
		t.Errorf("MaxDistanceKmForRTT(0.5) = %v, want 50", got)
	}
	// Giotsas et al.'s rule: 1 ms bounds at 100 km (§3.1).
	if got := MaxDistanceKmForRTT(1.0); got != 100 {
		t.Errorf("MaxDistanceKmForRTT(1.0) = %v, want 100", got)
	}
}

func TestBoundsAreConsistentProperty(t *testing.T) {
	// MinRTTMs and MaxDistanceKmForRTT must be exact inverses: if two points
	// are D km apart, the RTT floor maps back to exactly D.
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		a := coord(rng.Float64()*170-85, rng.Float64()*360-180)
		b := coord(rng.Float64()*170-85, rng.Float64()*360-180)
		d := a.DistanceKm(b)
		back := MaxDistanceKmForRTT(MinRTTMs(a, b))
		return back >= d-1e-6 && back <= d+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropagationIncludesStretch(t *testing.T) {
	a, b := coord(51.5, -0.13), coord(48.86, 2.35) // London-Paris
	floor := MinRTTMs(a, b)
	if got := PropagationMs(a, b); got != floor*PathStretch {
		t.Errorf("PropagationMs = %v, want MinRTTMs·PathStretch = %v", got, floor*PathStretch)
	}
}

// TestLinkOneWayMsStretch checks the metro boundary: a link just under
// 60 km runs at the metro stretch, one of exactly 60 km at the
// long-haul stretch, and both pay LinkFixedMs.
func TestLinkOneWayMsStretch(t *testing.T) {
	for _, tc := range []struct {
		km, stretch float64
	}{
		{0, MetroStretch},
		{59.999, MetroStretch},
		{60, PathStretch},
		{1000, PathStretch},
	} {
		want := tc.km/KmPerMsOneWay*tc.stretch + LinkFixedMs
		if got := LinkOneWayMs(tc.km); got != want {
			t.Errorf("LinkOneWayMs(%v) = %v, want %v (stretch %v)", tc.km, got, want, tc.stretch)
		}
	}
}

func TestLastMileMixture(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	fast, n := 0, 20000
	for i := 0; i < n; i++ {
		d := LastMileMs(rng)
		if d <= 0 {
			t.Fatalf("non-positive last-mile delay %v", d)
		}
		if d < 0.5 {
			fast++
		}
	}
	frac := float64(fast) / float64(n)
	// Around 35% of probes plus the lucky tail of the slow mixture should be
	// under 0.5 ms — the population the 0.5 ms ground-truth rule can use.
	if frac < 0.25 || frac > 0.55 {
		t.Errorf("fraction of sub-0.5ms last miles = %.3f, want 0.25-0.55", frac)
	}
}

func TestLastMileDeterministicUnderSeed(t *testing.T) {
	a := LastMileMs(rand.New(rand.NewSource(99)))
	b := LastMileMs(rand.New(rand.NewSource(99)))
	if a != b {
		t.Errorf("same seed, different samples: %v vs %v", a, b)
	}
}
