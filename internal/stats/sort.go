package stats

import (
	"math"
	"slices"
	"sync"
)

// The ECDF sort kernel. An ECDF sorts its samples at its first query.
// In a default run the largest ECDFs hold 3,868 and 2,713 samples (the
// ground truth's size) and most hold a few hundred. Inputs from
// radixSortCutoff up use an LSD radix sort over the IEEE-754 bit
// patterns instead of the standard library's comparison sort, 3-4x
// faster at 2,713 and 3,868 samples. The order-preserving key transform
// (flip the sign bit of non-negatives, all bits of negatives) makes
// unsigned key order equal float order, so the result is byte-identical
// to slices.Sort for any NaN-free input; distance samples are
// non-negative by construction.

// radixSortCutoff is the input size below which slices.Sort wins: the
// radix passes have a fixed cost (clearing 48 KiB of counting tables)
// that only amortizes over thousands of elements.
const radixSortCutoff = 512

const (
	floatRadixBits   = 11
	floatRadixPasses = 6 // 6 x 11 bits cover the 64-bit keys
	floatRadixSize   = 1 << floatRadixBits
	floatRadixMask   = floatRadixSize - 1
)

// floatSortBuf is the reusable working memory of one radix sort.
type floatSortBuf struct {
	a, b []uint64
	cnt  [floatRadixPasses][floatRadixSize]uint32
}

var floatSortPool = sync.Pool{New: func() any { return new(floatSortBuf) }}

// sortFloats sorts xs ascending in place.
func sortFloats(xs []float64) {
	if len(xs) < radixSortCutoff {
		slices.Sort(xs)
		return
	}
	buf := floatSortPool.Get().(*floatSortBuf)
	n := len(xs)
	if cap(buf.a) < n {
		buf.a = make([]uint64, n)
		buf.b = make([]uint64, n)
	}
	a, b := buf.a[:n], buf.b[:n]
	cnt := &buf.cnt
	for d := range cnt {
		c := &cnt[d]
		for i := range c {
			c[i] = 0
		}
	}
	for i, x := range xs {
		k := floatKey(x)
		a[i] = k
		cnt[0][k&floatRadixMask]++
		cnt[1][(k>>11)&floatRadixMask]++
		cnt[2][(k>>22)&floatRadixMask]++
		cnt[3][(k>>33)&floatRadixMask]++
		cnt[4][(k>>44)&floatRadixMask]++
		cnt[5][(k>>55)&floatRadixMask]++
	}
	for d := 0; d < floatRadixPasses; d++ {
		c := &cnt[d]
		shift := uint(d * floatRadixBits)
		if c[(a[0]>>shift)&floatRadixMask] == uint32(n) {
			continue // constant digit (clustered exponents); skip the pass
		}
		sum := uint32(0)
		for i := range c {
			c[i], sum = sum, sum+c[i]
		}
		for _, k := range a {
			digit := (k >> shift) & floatRadixMask
			b[c[digit]] = k
			c[digit]++
		}
		a, b = b, a
	}
	for i, k := range a {
		xs[i] = floatFromKey(k)
	}
	floatSortPool.Put(buf)
}

// floatKey maps a float64 to a uint64 whose unsigned order equals the
// float's order: non-negative values get the sign bit set, negative
// values have every bit flipped (reversing their backwards bit order).
func floatKey(x float64) uint64 {
	k := math.Float64bits(x)
	if k&(1<<63) != 0 {
		return ^k
	}
	return k | 1<<63
}

// floatFromKey inverts floatKey.
func floatFromKey(k uint64) float64 {
	if k&(1<<63) != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}
