package ipx

// Range is an inclusive address interval [Lo, Hi], the record shape
// geolocation database files use (both MaxMind's legacy CSV and
// IP2Location ship start/end columns).
type Range struct {
	Lo, Hi Addr
}

// RangeOf returns p's address interval.
func RangeOf(p Prefix) Range { return Range{Lo: p.First(), Hi: p.Last()} }

// Contains reports whether a falls in r; the oracle of
// TestLayeringRandomizedProperty and the RangeMap reference answer
// through it.
func (r Range) Contains(a Addr) bool { return r.Lo <= a && a <= r.Hi }

// Size returns the number of addresses in r; TestRangeSizeAndString
// checks it counts all 2^32 addresses of the full space.
func (r Range) Size() uint64 { return uint64(r.Hi) - uint64(r.Lo) + 1 }

// String formats r as "lo-hi".
func (r Range) String() string { return r.Lo.String() + "-" + r.Hi.String() }

// Allocator hands out aligned, non-overlapping sub-prefixes of a parent
// pool in address order. It models how an RIR delegates blocks to
// organizations, and how an organization carves its delegation into
// per-PoP assignments.
type Allocator struct {
	pool Prefix
	next Addr
	done bool // next wrapped past the pool end
}

// NewAllocator returns an allocator over pool.
func NewAllocator(pool Prefix) *Allocator {
	return &Allocator{pool: pool, next: pool.First()}
}

// Alloc returns the next free prefix of the requested length. ok is false
// when the pool is exhausted. Requests shorter than the pool fail
// immediately.
func (a *Allocator) Alloc(bits uint8) (p Prefix, ok bool) {
	if bits < a.pool.Bits || bits > 32 || a.done {
		return Prefix{}, false
	}
	size := Addr(1) << (32 - bits)
	// Align upward.
	base := (a.next + size - 1) &^ (size - 1)
	if base < a.next || base > a.pool.Last() || base+size-1 > a.pool.Last() {
		return Prefix{}, false
	}
	a.next = base + size
	if a.next == 0 { // wrapped at 255.255.255.255
		a.done = true
	}
	return Prefix{Base: base, Bits: bits}, true
}
