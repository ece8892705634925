// Package stats holds the small statistical toolkit the evaluation uses:
// empirical CDFs over distances (Figures 1, 2 and 5 are distance CDFs),
// quantiles, and threshold fractions.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// ECDF is an empirical cumulative distribution over float64 samples.
// Add samples, then query; queries sort lazily.
type ECDF struct {
	xs     []float64
	sorted bool
}

// FromSamples adopts xs — typically a sweep's unsorted distance
// samples, joined across its workers — as the ECDF's backing array
// without copying. The caller must not use xs afterwards.
// Queries sort lazily, exactly as if every sample had been Added.
func FromSamples(xs []float64) *ECDF { return &ECDF{xs: xs} }

// Add appends one sample.
func (e *ECDF) Add(x float64) {
	e.xs = append(e.xs, x)
	e.sorted = false
}

// AddAll appends many samples.
func (e *ECDF) AddAll(xs []float64) {
	e.xs = append(e.xs, xs...)
	e.sorted = false
}

// N returns the sample count.
func (e *ECDF) N() int { return len(e.xs) }

func (e *ECDF) ensure() {
	if !e.sorted {
		sortFloats(e.xs)
		e.sorted = true
	}
}

// FractionAtOrBelow returns P(X <= x); 0 for an empty CDF.
func (e *ECDF) FractionAtOrBelow(x float64) float64 {
	if len(e.xs) == 0 {
		return 0
	}
	e.ensure()
	i := sort.SearchFloat64s(e.xs, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.xs))
}

// Quantile returns the q-th quantile (0 <= q <= 1) by the nearest-rank
// method. It panics on an empty CDF or out-of-range q.
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.xs) == 0 || q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: Quantile(%v) over %d samples", q, len(e.xs)))
	}
	e.ensure()
	i := int(math.Ceil(q*float64(len(e.xs)))) - 1
	if i < 0 {
		i = 0
	}
	return e.xs[i]
}

// Median returns the 0.5 quantile.
func (e *ECDF) Median() float64 { return e.Quantile(0.5) }

// Max returns the largest sample. Like Quantile it panics on an empty
// CDF, with a message naming the misuse instead of a raw index error.
func (e *ECDF) Max() float64 {
	if len(e.xs) == 0 {
		panic("stats: Max over 0 samples")
	}
	e.ensure()
	return e.xs[len(e.xs)-1]
}

// Points returns the sorted samples. Plot exporters turn them into
// (value, i/n) step series — the exact curves of the paper's figures.
func (e *ECDF) Points() []float64 {
	e.ensure()
	out := make([]float64, len(e.xs))
	copy(out, e.xs)
	return out
}

// Render prints the CDF as "value@fraction" pairs at the given probe
// points, the textual stand-in for the paper's CDF figures.
func (e *ECDF) Render(points []float64) string {
	var b strings.Builder
	for i, x := range points {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "≤%g:%5.1f%%", x, 100*e.FractionAtOrBelow(x))
	}
	return b.String()
}

// Fraction formats n/d as a percentage, guarding the d == 0 case.
func Fraction(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// Pct renders a fraction as "12.3%".
func Pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }
