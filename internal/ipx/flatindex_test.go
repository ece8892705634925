package ipx

import (
	"math/rand"
	"sort"
	"testing"
)

// buildRandomMap makes a RangeMap of n disjoint random intervals drawn
// from rng, spread over the full address space.
func buildRandomMap(t testing.TB, rng *rand.Rand, n int) *RangeMap[int] {
	t.Helper()
	m := &RangeMap[int]{}
	// Draw 2n distinct points, pair them up in sorted order, keep every
	// other pair so neighbours stay disjoint.
	points := make([]Addr, 0, 2*n)
	seen := map[Addr]bool{}
	for len(points) < 2*n {
		a := Addr(rng.Uint32())
		if !seen[a] {
			seen[a] = true
			points = append(points, a)
		}
	}
	sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })
	for i := 0; i+3 < len(points); i += 4 {
		m.Add(Range{Lo: points[i], Hi: points[i+1]}, i)
	}
	m.MustBuild()
	return m
}

func TestFlatIndexMatchesRangeMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 17, 300, 4000} {
		m := buildRandomMap(t, rng, n)
		x := flatIndexOf(t, m)
		if x.Len() != m.Len() {
			t.Fatalf("n=%d: Len %d != %d", n, x.Len(), m.Len())
		}
		probe := func(a Addr) {
			wantV, wantOK := m.Lookup(a)
			gotV, gotOK := x.Lookup(a)
			if gotV != wantV || gotOK != wantOK {
				t.Fatalf("n=%d: FlatIndex.Lookup(%v) = %v,%v want %v,%v", n, a, gotV, gotOK, wantV, wantOK)
			}
		}
		// Random probes plus every interval's boundary neighbourhood —
		// the off-by-one-prone addresses.
		for i := 0; i < 2000; i++ {
			probe(Addr(rng.Uint32()))
		}
		m.Walk(func(r Range, _ int) bool {
			probe(r.Lo)
			probe(r.Hi)
			if r.Lo > 0 {
				probe(r.Lo - 1)
			}
			if r.Hi < ^Addr(0) {
				probe(r.Hi + 1)
			}
			return true
		})
		probe(0)
		probe(^Addr(0))
	}
}

func TestFlatIndexCrossBoundaryRange(t *testing.T) {
	// One interval spanning many /16 buckets: every bucket inside it must
	// still resolve through the jump table to the interval's single entry.
	m := &RangeMap[string]{}
	m.Add(Range{Lo: MustParseAddr("10.0.0.0"), Hi: MustParseAddr("10.200.0.0")}, "wide")
	m.Add(Range{Lo: MustParseAddr("10.200.0.2"), Hi: MustParseAddr("10.200.0.2")}, "point")
	m.MustBuild()
	x := flatIndexOf(t, m)
	for _, tc := range []struct {
		addr string
		want string
		ok   bool
	}{
		{"10.0.0.0", "wide", true},
		{"10.100.200.30", "wide", true},
		{"10.200.0.0", "wide", true},
		{"10.200.0.1", "", false},
		{"10.200.0.2", "point", true},
		{"10.200.0.3", "", false},
		{"9.255.255.255", "", false},
		{"11.0.0.0", "", false},
	} {
		v, ok := x.Lookup(MustParseAddr(tc.addr))
		if v != tc.want || ok != tc.ok {
			t.Errorf("Lookup(%s) = %q,%v want %q,%v", tc.addr, v, ok, tc.want, tc.ok)
		}
	}
}

func TestNewFlatIndexRejectsBadIntervals(t *testing.T) {
	for _, tc := range []struct {
		name     string
		los, his []Addr
		vals     []int
	}{
		{"out of order", []Addr{100, 0}, []Addr{199, 99}, []int{1, 2}},
		{"overlapping", []Addr{0, 99}, []Addr{99, 199}, []int{1, 2}},
		{"nested", []Addr{0, 10}, []Addr{99, 20}, []int{1, 2}},
		{"inverted", []Addr{0, 200}, []Addr{99, 150}, []int{1, 2}},
		{"short his", []Addr{0, 100}, []Addr{99}, []int{1, 2}},
		{"short vals", []Addr{0, 100}, []Addr{99, 199}, []int{1}},
	} {
		if _, err := NewFlatIndex(tc.los, tc.his, tc.vals); err == nil {
			t.Errorf("%s: NewFlatIndex accepted %v-%v", tc.name, tc.los, tc.his)
		}
	}
}

func TestNewFlatIndexAbuttingOK(t *testing.T) {
	x, err := NewFlatIndex([]Addr{0, 100, 0xffffff00}, []Addr{99, 199, 0xffffffff}, []int{1, 2, 3})
	if err != nil {
		t.Fatalf("abutting intervals rejected: %v", err)
	}
	for _, tc := range []struct {
		a    Addr
		want int
		ok   bool
	}{{0, 1, true}, {99, 1, true}, {100, 2, true}, {199, 2, true}, {200, 0, false},
		{0xfffffeff, 0, false}, {0xffffff00, 3, true}, {0xffffffff, 3, true}} {
		if v, ok := x.Lookup(tc.a); v != tc.want || ok != tc.ok {
			t.Errorf("Lookup(%v) = %v,%v want %v,%v", tc.a, v, ok, tc.want, tc.ok)
		}
	}
}

func TestNewFlatIndexEmpty(t *testing.T) {
	x, err := NewFlatIndex[int](nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	addrs := []Addr{0, 42, 1 << 16, MustParseAddr("10.0.0.1"), ^Addr(0)}
	for _, a := range addrs {
		if _, ok := x.Lookup(a); ok {
			t.Errorf("empty index found %v", a)
		}
	}
	out := make([]int32, len(addrs))
	x.FindBatch(addrs, out, &BatchScratch{})
	for i, iv := range out {
		if iv != -1 {
			t.Errorf("empty index FindBatch(%v) = %d", addrs[i], iv)
		}
	}
}

func BenchmarkRangeMapLookup(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	m := buildRandomMap(b, rng, 20000)
	addrs := make([]Addr, 4096)
	for i := range addrs {
		addrs[i] = Addr(rng.Uint32())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Lookup(addrs[i%len(addrs)])
	}
}

func BenchmarkFlatIndexLookup(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := flatIndexOf(b, buildRandomMap(b, rng, 20000))
	addrs := make([]Addr, 4096)
	for i := range addrs {
		addrs[i] = Addr(rng.Uint32())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Lookup(addrs[i%len(addrs)])
	}
}
