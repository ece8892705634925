package ipx

import "fmt"

// FlatIndex is an immutable, cache-friendly index of sorted, disjoint
// address intervals: the bounds live in two parallel slices
// (structure-of-arrays, so a binary search touches only the 4-byte lower
// bounds, not whole records), and a /16 jump table narrows every search
// to the handful of intervals that can cover the address's top half.
// Lookup is safe for concurrent use; FindBatch resolves whole address
// blocks at once.
type FlatIndex[V any] struct {
	los  []Addr
	his  []Addr
	vals []V
	// jump[k] is the index of the first interval with Lo >= k<<16, for
	// k in [0, 65536]; jump[65536] == len(los). An address a is covered,
	// if at all, by the interval just before the first Lo > a, and that
	// boundary always falls inside [jump[a>>16], jump[a>>16+1]].
	jump []int32
}

// NewFlatIndex adopts the intervals [los[i], his[i]] -> vals[i] without
// copying them, fills the /16 jump table and validates the whole through
// FlatIndexFromSoA. The intervals must be sorted and disjoint (abutting
// is fine); anything else is an error naming the first violation.
func NewFlatIndex[V any](los, his []Addr, vals []V) (*FlatIndex[V], error) {
	// One pass over the lower bounds fills the jump table: walk the /16
	// buckets and record where each bucket's intervals start.
	jump := make([]int32, 1<<16+1)
	k := 0
	for i, lo := range los {
		for k <= int(lo>>16) {
			jump[k] = int32(i)
			k++
		}
	}
	for ; k <= 1<<16; k++ {
		jump[k] = int32(len(los))
	}
	return FlatIndexFromSoA(los, his, vals, jump)
}

// Len returns the number of intervals.
func (x *FlatIndex[V]) Len() int { return len(x.los) }

// SoA exposes the index's backing arrays — interval lower bounds, upper
// bounds, values and the /16 jump table — so they can be serialized (or
// walked) without copying. The returned slices are the live arrays, not
// copies: callers must treat them as read-only.
func (x *FlatIndex[V]) SoA() (los, his []Addr, vals []V, jump []int32) {
	return x.los, x.his, x.vals, x.jump
}

// FlatIndexFromSoA adopts pre-built SoA arrays — typically sections of a
// memory-mapped snapshot — without copying them, after validating every
// invariant find relies on: matching lengths, sorted non-overlapping
// intervals, and a jump table consistent with the bounds. The error
// names the first violation, so a corrupted snapshot fails loudly
// instead of serving wrong answers.
func FlatIndexFromSoA[V any](los, his []Addr, vals []V, jump []int32) (*FlatIndex[V], error) {
	if len(his) != len(los) || len(vals) != len(los) {
		return nil, fmt.Errorf("ipx: SoA length mismatch: %d los, %d his, %d vals",
			len(los), len(his), len(vals))
	}
	if len(jump) != 1<<16+1 {
		return nil, fmt.Errorf("ipx: jump table has %d entries, want %d", len(jump), 1<<16+1)
	}
	for i := range los {
		if los[i] > his[i] {
			return nil, fmt.Errorf("ipx: inverted interval %d: %v-%v", i, los[i], his[i])
		}
		if i > 0 && los[i] <= his[i-1] {
			return nil, fmt.Errorf("ipx: intervals %d and %d out of order or overlapping", i-1, i)
		}
	}
	k := 0
	for i, lo := range los {
		for k <= int(lo>>16) {
			if jump[k] != int32(i) {
				return nil, fmt.Errorf("ipx: jump[%d] = %d, want %d", k, jump[k], i)
			}
			k++
		}
	}
	for ; k <= 1<<16; k++ {
		if jump[k] != int32(len(los)) {
			return nil, fmt.Errorf("ipx: jump[%d] = %d, want %d", k, jump[k], len(los))
		}
	}
	return &FlatIndex[V]{los: los, his: his, vals: vals, jump: jump}, nil
}

// linearCutoff is the bucket-window width below which find switches
// from binary search to a linear scan of the lower bounds. Short
// windows are the common case (/16 buckets rarely hold many intervals),
// and a forward scan over the 4-byte SoA bounds is branch-predictable
// and prefetch-friendly where binary search is neither.
const linearCutoff = 8

// find returns the index of the interval covering a, if any.
func (x *FlatIndex[V]) find(a Addr) (int, bool) {
	hi := a >> 16
	lo, up := int(x.jump[hi]), int(x.jump[hi+1])
	// Binary search inside the bucket window for the first Lo > a, until
	// the window is short enough that a linear scan wins.
	for up-lo > linearCutoff {
		mid := int(uint(lo+up) >> 1)
		if x.los[mid] > a {
			up = mid
		} else {
			lo = mid + 1
		}
	}
	for lo < up && x.los[lo] <= a {
		lo++
	}
	if lo == 0 {
		return 0, false
	}
	if x.his[lo-1] >= a { // los[lo-1] <= a by construction
		return lo - 1, true
	}
	return 0, false
}

// Lookup returns the value covering a. It is safe for concurrent use.
func (x *FlatIndex[V]) Lookup(a Addr) (V, bool) {
	if i, ok := x.find(a); ok {
		return x.vals[i], true
	}
	var zero V
	return zero, false
}
