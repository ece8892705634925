package stats

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestFractionAtOrBelow(t *testing.T) {
	e := FromSamples([]float64{1, 2, 3, 4})
	tests := []struct {
		x    float64
		want float64
	}{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {100, 1},
	}
	for _, tt := range tests {
		if got := e.FractionAtOrBelow(tt.x); got != tt.want {
			t.Errorf("FractionAtOrBelow(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

func TestEmptyCDF(t *testing.T) {
	var e ECDF
	if e.FractionAtOrBelow(5) != 0 {
		t.Error("empty CDF should return 0")
	}
	defer func() {
		if recover() == nil {
			t.Error("Quantile on empty CDF should panic")
		}
	}()
	e.Quantile(0.5)
}

func TestQuantile(t *testing.T) {
	e := FromSamples([]float64{10, 20, 30, 40, 50})
	if got := e.Median(); got != 30 {
		t.Errorf("Median = %v", got)
	}
	if got := e.Quantile(0); got != 10 {
		t.Errorf("Quantile(0) = %v", got)
	}
	if got := e.Quantile(1); got != 50 {
		t.Errorf("Quantile(1) = %v", got)
	}
	if got := e.Max(); got != 50 {
		t.Errorf("Max = %v", got)
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var e ECDF
	for i := 0; i < 500; i++ {
		e.Add(rng.NormFloat64() * 100)
	}
	f := func(a, b float64) bool {
		if a > b {
			a, b = b, a
		}
		return e.FractionAtOrBelow(a) <= e.FractionAtOrBelow(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantileFractionInverseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var e ECDF
	for i := 0; i < 300; i++ {
		e.Add(rng.Float64() * 1000)
	}
	// FractionAtOrBelow(Quantile(q)) >= q for all q.
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		if got := e.FractionAtOrBelow(e.Quantile(q)); got < q-1e-12 {
			t.Errorf("FractionAtOrBelow(Quantile(%v)) = %v < q", q, got)
		}
	}
}

func TestAddAfterQueryResorts(t *testing.T) {
	e := FromSamples([]float64{5, 1})
	_ = e.Median() // forces sort
	e.Add(0)
	if got := e.Quantile(0); got != 0 {
		t.Errorf("Quantile(0) after late Add = %v", got)
	}
	if !sort.Float64sAreSorted(e.xs) {
		t.Error("internal samples not sorted after query")
	}
}

func TestRender(t *testing.T) {
	e := FromSamples([]float64{10, 50, 100, 500})
	s := e.Render([]float64{40, 1000})
	if s == "" || len(s) < 10 {
		t.Errorf("Render = %q", s)
	}
}

func TestFractionAndPct(t *testing.T) {
	if Fraction(1, 4) != 0.25 {
		t.Error("Fraction broken")
	}
	if Fraction(1, 0) != 0 {
		t.Error("Fraction must guard divide-by-zero")
	}
	if Pct(0.254) != "25.4%" {
		t.Errorf("Pct = %q", Pct(0.254))
	}
}

func TestEmptyCDFMax(t *testing.T) {
	var e ECDF
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Max on empty CDF should panic")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "0 samples") {
			t.Errorf("Max panic message = %v, want one naming the empty CDF", r)
		}
	}()
	e.Max()
}

func TestEmptyCDFQuantileMessage(t *testing.T) {
	var e ECDF
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Quantile on empty CDF should panic")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "0 samples") {
			t.Errorf("Quantile panic message = %v, want one naming the empty CDF", r)
		}
	}()
	e.Quantile(0.5)
}
