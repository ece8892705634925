package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestSortFloatsMatchesSlicesSort pins the radix kernel to the standard
// comparison sort across sizes straddling the cutoff and across value
// shapes: clustered magnitudes (the distance-sample case), mixed signs,
// zeros of both signs, infinities and ties.
func TestSortFloatsMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	shapes := map[string]func(i int) float64{
		"distances": func(int) float64 { return rng.Float64() * 20_000 },
		"mixed":     func(int) float64 { return (rng.Float64() - 0.5) * 1e12 },
		"ties":      func(i int) float64 { return float64(i % 7) },
		"extremes": func(i int) float64 {
			switch i % 5 {
			case 0:
				return math.Inf(1)
			case 1:
				return math.Inf(-1)
			case 2:
				return math.Copysign(0, -1)
			case 3:
				return 0
			default:
				return rng.NormFloat64()
			}
		},
	}
	for name, gen := range shapes {
		for _, n := range []int{0, 1, 2, radixSortCutoff - 1, radixSortCutoff, radixSortCutoff + 1, 10_000} {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = gen(i)
			}
			want := slices.Clone(xs)
			slices.Sort(want)
			sortFloats(xs)
			for i := range xs {
				if xs[i] != want[i] && !(xs[i] == 0 && want[i] == 0) {
					t.Fatalf("%s n=%d: position %d: got %v want %v", name, n, i, xs[i], want[i])
				}
			}
		}
	}
}

// TestFloatKeyOrder pins the order-preserving key transform and its
// inverse.
func TestFloatKeyOrder(t *testing.T) {
	vals := []float64{math.Inf(-1), -1e300, -2.5, -1, math.Copysign(0, -1), 0, 1, 2.5, 1e300, math.Inf(1)}
	for i, x := range vals {
		if back := floatFromKey(floatKey(x)); back != x && !(back == 0 && x == 0) {
			t.Errorf("round trip broke: %v -> %v", x, back)
		}
		for _, y := range vals[i+1:] {
			if x < y && floatKey(x) >= floatKey(y) {
				t.Errorf("key order broke: %v < %v but keys %x >= %x", x, y, floatKey(x), floatKey(y))
			}
		}
	}
}

// TestFromSamples checks the adopting constructor answers like an ECDF
// built by Add.
func TestFromSamples(t *testing.T) {
	e := FromSamples([]float64{30, 10, 20})
	if e.N() != 3 {
		t.Fatalf("N = %d", e.N())
	}
	if got := e.Points(); !slices.Equal(got, []float64{10, 20, 30}) {
		t.Fatalf("Points = %v", got)
	}
	if got := e.Median(); got != 20 {
		t.Fatalf("Median = %v", got)
	}
}

// BenchmarkECDFMerge locks in the per-worker-CDF fold the accuracy
// sweep pays: merging unsorted worker sample buffers into one queryable
// CDF.
func BenchmarkECDFMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	const workers, per = 8, 16_384
	parts := make([]*ECDF, workers)
	for i := range parts {
		xs := make([]float64, per)
		for j := range xs {
			xs[j] = rng.Float64() * 20_000
		}
		parts[i] = FromSamples(xs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := Merge(parts...)
		_ = m.Quantile(0.9)
	}
	b.ReportMetric(float64(workers*per)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkECDFSort locks in the lazy query-time sort at sweep size.
func BenchmarkECDFSort(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	xs := make([]float64, 131_072)
	for i := range xs {
		xs[i] = rng.Float64() * 20_000
	}
	work := make([]float64, len(xs))
	// One untimed sort fills the radix sort's pooled buffers, so a short
	// -benchtime run reports the steady state's zero B/op instead of the
	// warm-up allocation spread over a few iterations.
	copy(work, xs)
	sortFloats(work)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, xs)
		sortFloats(work)
	}
	b.ReportMetric(float64(len(xs))*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}
