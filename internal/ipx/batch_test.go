package ipx

import (
	"math/rand"
	"testing"
)

// batchTestIndex builds a FlatIndex with a mix of bucket shapes: dense
// /24 runs inside 10/8 (wide /16 windows), a giant range spanning many
// /16s, sparse singletons, and empty buckets between them.
func batchTestIndex(t testing.TB) *FlatIndex[uint32] {
	t.Helper()
	m := &RangeMap[uint32]{}
	v := uint32(0)
	add := func(lo, hi Addr) {
		m.Add(Range{Lo: lo, Hi: hi}, v)
		v++
	}
	for i := 0; i < 700; i++ {
		if i%3 == 2 {
			continue // hole
		}
		base := Addr(10<<24 | i<<8)
		add(base, base+255)
	}
	add(50<<24, 53<<24) // spans several /16 buckets
	for i := 0; i < 64; i++ {
		add(Addr(80<<24|i<<16|7), Addr(80<<24|i<<16|7)) // singletons
	}
	if err := m.Build(); err != nil {
		t.Fatal(err)
	}
	return flatIndexOf(t, m)
}

// checkBatchMatchesLookup pins FindBatch to the per-address oracle: the
// interval it reports for each position must hold the value Lookup
// returns, and a miss must be a Lookup miss.
func checkBatchMatchesLookup(t *testing.T, x *FlatIndex[uint32], addrs []Addr, s *BatchScratch) {
	t.Helper()
	out := make([]int32, len(addrs))
	x.FindBatch(addrs, out, s)
	for i, a := range addrs {
		wantV, wantOK := x.Lookup(a)
		if r := out[i]; (r >= 0) != wantOK || (wantOK && x.vals[r] != wantV) {
			t.Fatalf("FindBatch[%d] (%v) = interval %d, want value %v,%v", i, a, r, wantV, wantOK)
		}
	}
}

func TestLookupBatchMatchesLookup(t *testing.T) {
	x := batchTestIndex(t)
	rng := rand.New(rand.NewSource(7))
	s := &BatchScratch{}

	patterns := map[string][]Addr{
		"empty":     {},
		"single":    {10<<24 | 5<<8 | 1},
		"ascending": make([]Addr, 5000),
		"random":    make([]Addr, 5000),
		"reversed":  make([]Addr, 5000),
		// Adversarial for the monotone cursor: alternate between distant
		// buckets so consecutive sorted keys still jump windows.
		"striped":    make([]Addr, 5000),
		"duplicates": make([]Addr, 5000),
		"misses":     make([]Addr, 5000),
		"boundaries": nil,
	}
	for i := range patterns["ascending"] {
		patterns["ascending"][i] = Addr(10<<24 + i*37)
	}
	for i := range patterns["random"] {
		patterns["random"][i] = Addr(rng.Uint32())
	}
	for i := range patterns["reversed"] {
		patterns["reversed"][i] = Addr(90<<24) - Addr(i*101)
	}
	for i := range patterns["striped"] {
		switch i % 3 {
		case 0:
			patterns["striped"][i] = Addr(10<<24 | (i%700)<<8 | i%256)
		case 1:
			patterns["striped"][i] = Addr(51<<24 + i)
		default:
			patterns["striped"][i] = Addr(80<<24 | (i%64)<<16 | i%16)
		}
	}
	for i := range patterns["duplicates"] {
		patterns["duplicates"][i] = Addr(10<<24 | (i%4)<<8 | 9)
	}
	for i := range patterns["misses"] {
		patterns["misses"][i] = Addr(200<<24 + i)
	}
	los, his, _, _ := x.SoA()
	for i := range los {
		patterns["boundaries"] = append(patterns["boundaries"],
			los[i], his[i], los[i]-1, his[i]+1)
	}

	for name, addrs := range patterns {
		t.Run(name, func(t *testing.T) {
			checkBatchMatchesLookup(t, x, addrs, s)
		})
	}
}

// TestLookupBatchSegments crosses the 2^16 segment boundary so the
// per-segment position packing is exercised.
func TestLookupBatchSegments(t *testing.T) {
	x := batchTestIndex(t)
	rng := rand.New(rand.NewSource(11))
	n := batchSegment + batchSegment/2
	addrs := make([]Addr, n)
	for i := range addrs {
		addrs[i] = Addr(rng.Uint32())
	}
	checkBatchMatchesLookup(t, x, addrs, &BatchScratch{})
}

// TestFindBatchScratchReuse runs batches of shrinking and growing sizes
// through one scratch, catching stale-buffer bugs.
func TestFindBatchScratchReuse(t *testing.T) {
	x := batchTestIndex(t)
	rng := rand.New(rand.NewSource(13))
	s := &BatchScratch{}
	for _, n := range []int{4096, 17, 0, 9000, 1, 256} {
		addrs := make([]Addr, n)
		for i := range addrs {
			addrs[i] = Addr(10<<24 | rng.Intn(900)<<8 | rng.Intn(256))
		}
		checkBatchMatchesLookup(t, x, addrs, s)
	}
}

func TestFindBatchShortOutputPanics(t *testing.T) {
	x := batchTestIndex(t)
	defer func() {
		if recover() == nil {
			t.Fatal("FindBatch with a short output did not panic")
		}
	}()
	x.FindBatch(make([]Addr, 4), make([]int32, 3), &BatchScratch{})
}

func BenchmarkLookupBatch(b *testing.B) {
	x := batchTestIndex(b)
	s := &BatchScratch{}
	rng := rand.New(rand.NewSource(3))
	const n = 8192
	random := make([]Addr, n)
	clustered := make([]Addr, n)
	for i := range random {
		random[i] = Addr(10<<24 | rng.Intn(900)<<8 | rng.Intn(256))
		clustered[i] = Addr(10<<24 | (i/64)%700<<8 | i%256)
	}
	out := make([]int32, n)
	for _, bc := range []struct {
		name  string
		addrs []Addr
	}{{"random", random}, {"clustered", clustered}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				x.FindBatch(bc.addrs, out, s)
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "addrs/s")
		})
	}
}
