package vendors

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"routergeo/internal/gazetteer"
)

// TestKeyedRandMatchesMathRand replays rand.New(rand.NewSource(seed))
// through the Rand methods the pipelines and the gazetteer call, for
// the seeds at the edges of math/rand's seed reduction and for drawn
// seeds, and for up to 400 calls, so that many streams pass from the
// computed draws into the fallback source.
func TestKeyedRandMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, lehmerMod, -lehmerMod, 89482311, math.MinInt64, math.MaxInt64}
	edges := len(seeds)
	plan := rand.New(rand.NewSource(2017))
	for len(seeds) < edges+1000 {
		seeds = append(seeds, int64(plan.Uint64()))
	}
	for si, seed := range seeds {
		want, got := rand.New(rand.NewSource(seed)), newKeyedRand(seed)
		calls := 400
		if si >= edges {
			calls = 1 + plan.Intn(400)
		}
		for call := 0; call < calls; call++ {
			var w, g any
			switch plan.Intn(6) {
			case 0:
				w, g = want.Uint64(), got.Uint64()
			case 1:
				w, g = want.Int63(), got.Int63()
			case 2:
				w, g = want.Float64(), got.Float64()
			case 3:
				n := 1 + plan.Intn(3000)
				w, g = want.Intn(n), got.Intn(n)
			case 4:
				w, g = want.ExpFloat64(), got.ExpFloat64()
			case 5:
				n := plan.Intn(8)
				w, g = slices.Equal(want.Perm(n), got.Perm(n)), true
			}
			if w != g {
				t.Fatalf("seed %d, call %d: got %v, want %v", seed, call, g, w)
			}
		}
		// Reseeding starts the computed draws over.
		reseed := plan.Int63()
		want.Seed(reseed)
		got.Seed(reseed)
		if w, g := want.Uint64(), got.Uint64(); w != g {
			t.Fatalf("seed %d reseeded with %d: got %#x, want %#x", seed, reseed, g, w)
		}
	}
}

// FuzzKeyedRandMatchesMathRand compares up to 600 Uint64 draws of
// newKeyedRand(seed) with rand.NewSource(seed)'s.
func FuzzKeyedRandMatchesMathRand(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, lehmerMod, math.MinInt64, math.MaxInt64} {
		f.Add(seed, uint16(600))
	}
	f.Add(int64(42), uint16(rngTap))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		want, got := rand.NewSource(seed).(rand.Source64), newKeyedRand(seed)
		for k := 1; k <= int(draws%601); k++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d, draw %d: got %#x, want %#x", seed, k, g, w)
			}
		}
	})
}

func TestCoordForHitAllocatesNothing(t *testing.T) {
	city, ok := gazetteer.New().City("US", "New York")
	if !ok {
		t.Fatal("no New York in the gazetteer")
	}
	tab := newCoordTable(MaxMindGeoLite())
	want := tab.coordFor(city)
	allocs := testing.AllocsPerRun(100, func() {
		if got := tab.coordFor(city); got != want {
			t.Fatalf("cached coordinate changed: %v, then %v", want, got)
		}
	})
	if allocs != 0 {
		t.Errorf("coordFor allocates %v times per cache hit, want 0", allocs)
	}
}
