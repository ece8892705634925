package ipx

import (
	"fmt"
	"sort"
	"testing"
)

// RangeMap is a sorted, non-overlapping map from address intervals to
// values with a plain binary-search Lookup: the reference FlatIndex and
// FindBatch are tested against. Build it once with Add/Build, then
// Lookup concurrently.
type RangeMap[V any] struct {
	ranges []Range
	values []V
	built  bool
}

// Add inserts an interval. Add panics after Build; the structure is
// immutable once built.
func (m *RangeMap[V]) Add(r Range, v V) {
	if m.built {
		panic("ipx: Add after Build")
	}
	if r.Lo > r.Hi {
		panic(fmt.Sprintf("ipx: inverted range %v", r))
	}
	m.ranges = append(m.ranges, r)
	m.values = append(m.values, v)
}

// AddPrefix inserts a CIDR block.
func (m *RangeMap[V]) AddPrefix(p Prefix, v V) { m.Add(RangeOf(p), v) }

// Build sorts the intervals and verifies they do not overlap. It returns
// an error naming the first overlapping pair if they do.
func (m *RangeMap[V]) Build() error {
	if m.built {
		return nil
	}
	idx := make([]int, len(m.ranges))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return m.ranges[idx[a]].Lo < m.ranges[idx[b]].Lo })

	ranges := make([]Range, len(idx))
	values := make([]V, len(idx))
	for i, j := range idx {
		ranges[i] = m.ranges[j]
		values[i] = m.values[j]
	}
	for i := 1; i < len(ranges); i++ {
		if ranges[i].Lo <= ranges[i-1].Hi {
			return fmt.Errorf("ipx: overlapping ranges %v and %v", ranges[i-1], ranges[i])
		}
	}
	m.ranges, m.values = ranges, values
	m.built = true
	return nil
}

// MustBuild is Build that panics on overlap, for statically-known inputs.
func (m *RangeMap[V]) MustBuild() {
	if err := m.Build(); err != nil {
		panic(err)
	}
}

// Len returns the number of intervals.
func (m *RangeMap[V]) Len() int { return len(m.ranges) }

// Lookup returns the value covering a. It panics if called before Build.
func (m *RangeMap[V]) Lookup(a Addr) (V, bool) {
	if !m.built {
		panic("ipx: Lookup before Build")
	}
	// Binary search for the last range with Lo <= a.
	i := sort.Search(len(m.ranges), func(i int) bool { return m.ranges[i].Lo > a })
	var zero V
	if i == 0 {
		return zero, false
	}
	if r := m.ranges[i-1]; r.Contains(a) {
		return m.values[i-1], true
	}
	return zero, false
}

// Walk calls fn for every interval in ascending order, stopping early if fn
// returns false.
func (m *RangeMap[V]) Walk(fn func(Range, V) bool) {
	for i := range m.ranges {
		if !fn(m.ranges[i], m.values[i]) {
			return
		}
	}
}

// flatIndexOf serves a built RangeMap's intervals through NewFlatIndex.
func flatIndexOf[V any](t testing.TB, m *RangeMap[V]) *FlatIndex[V] {
	t.Helper()
	los := make([]Addr, len(m.ranges))
	his := make([]Addr, len(m.ranges))
	for i, r := range m.ranges {
		los[i], his[i] = r.Lo, r.Hi
	}
	x, err := NewFlatIndex(los, his, m.values)
	if err != nil {
		t.Fatal(err)
	}
	return x
}
