package ipx

// The batch lookup kernel. FindBatch sorts each block of addresses (an
// LSD radix sort over the address bits, ~3x faster than a comparison
// sort here) and walks the interval table once, monotonically,
// resolving every address against a forward-moving cursor. Results
// scatter back to input positions, so callers observe exactly the
// per-address Lookup answers in input order.
//
// It serves two kinds of traffic. The measurement sweeps probe at most
// 9,575 addresses at the default scale (the Ark set), in ascending
// order and in blocks of up to 8,192. The server's bulk /v2/lookup
// requests (8,192 addresses in perfbench serve) arrive in no order,
// which defeats the branch predictor inside find's binary search; that
// is where sorting pays.

// batchSegment is the largest number of addresses one sort-and-walk
// segment handles: the radix keys pack the address in the top 32 bits
// and the input position in the low 16, so a segment holds at most 2^16
// entries. Larger batches are processed as consecutive segments.
const batchSegment = 1 << 16

// radixBits/radixSize parameterize the LSD radix sort: 3 passes of 11
// bits cover the 32 address bits, and an 11-bit counting table (8 KiB
// per pass) stays cache-resident, unlike a 16-bit one.
const (
	radixBits   = 11
	radixPasses = 3
	radixSize   = 1 << radixBits
	radixMask   = radixSize - 1
)

// BatchScratch is the reusable working memory of FindBatch: the radix
// key buffers and counting tables. The zero value is ready to use;
// buffers grow on demand and are retained across calls, so a
// per-worker scratch makes steady-state batch lookups allocation-free.
// A BatchScratch must not be shared between concurrent calls.
type BatchScratch struct {
	keys []uint64
	tmp  []uint64
	cnt  [radixPasses][radixSize]uint32
}

// grow returns s resized to n, reallocating only when capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// FindBatch resolves many addresses at once, filling out[i] with the
// index of the interval covering addrs[i], or -1 when no interval does.
// It is equivalent to calling find per address but walks the index
// monotonically over sorted probes. out must have len(addrs) room; s
// carries the scratch buffers between calls.
//
//geolint:hotpath
func (x *FlatIndex[V]) FindBatch(addrs []Addr, out []int32, s *BatchScratch) {
	if len(out) < len(addrs) {
		panic("ipx: FindBatch output shorter than input")
	}
	for base := 0; base < len(addrs); base += batchSegment {
		end := base + batchSegment
		if end > len(addrs) {
			end = len(addrs)
		}
		x.findSegment(addrs[base:end], out[base:end], s)
	}
}

// findSegment is FindBatch over one <= 2^16 address segment.
//
//geolint:hotpath
func (x *FlatIndex[V]) findSegment(addrs []Addr, out []int32, s *BatchScratch) {
	n := len(addrs)
	if n == 0 {
		return
	}
	s.keys = grow(s.keys, n)
	s.tmp = grow(s.tmp, n)
	keys := s.keys[:n]
	for i, a := range addrs {
		keys[i] = uint64(a)<<16 | uint64(i)
	}
	keys = radixSortAddrKeys(keys, s.tmp[:n], &s.cnt)

	// Monotone walk: keys ascend by address, so the position of the
	// first interval with Lo > a never moves backwards. The /16 jump
	// table seeds each probe past untouched buckets; within a bucket a
	// galloping search advances the cursor — O(1) compares when sorted
	// neighbours land in the same or adjacent intervals (the common
	// case), O(log gap) when one stray address jumps far ahead.
	p := 0
	for _, k := range keys {
		a := Addr(k >> 16)
		if j := int(x.jump[a>>16]); j > p {
			p = j
		}
		if up := int(x.jump[a>>16+1]); p < up && x.los[p] <= a {
			// Gallop to bracket the first Lo > a, then binary search the
			// bracket. Invariant entering the loop: los[p] <= a.
			lo, hi := p, up
			step := 1
			for lo+step < hi && x.los[lo+step] <= a {
				lo += step
				step <<= 1
			}
			if lo+step < hi {
				hi = lo + step
			}
			for lo+1 < hi {
				mid := int(uint(lo+hi) >> 1)
				if x.los[mid] > a {
					hi = mid
				} else {
					lo = mid
				}
			}
			p = lo + 1
		}
		r := int32(-1)
		if p > 0 && x.his[p-1] >= a {
			r = int32(p - 1)
		}
		out[k&0xffff] = r
	}
}

// radixSortAddrKeys sorts keys (address<<16 | position) by their
// address bits with a stable LSD radix sort, returning the sorted slice
// (one of keys/tmp). Passes whose digit is constant across the segment
// are skipped, so clustered inputs sort in a single scatter.
func radixSortAddrKeys(keys, tmp []uint64, cnt *[radixPasses][radixSize]uint32) []uint64 {
	for d := 0; d < radixPasses; d++ {
		c := &cnt[d]
		for i := range c {
			c[i] = 0
		}
	}
	for _, k := range keys {
		cnt[0][(k>>16)&radixMask]++
		cnt[1][(k>>(16+radixBits))&radixMask]++
		cnt[2][(k>>(16+2*radixBits))&radixMask]++
	}
	a, b := keys, tmp
	for d := 0; d < radixPasses; d++ {
		c := &cnt[d]
		shift := uint(16 + d*radixBits)
		if c[(a[0]>>shift)&radixMask] == uint32(len(a)) {
			continue // every key shares this digit; nothing to move
		}
		sum := uint32(0)
		for i := range c {
			c[i], sum = sum, sum+c[i]
		}
		for _, k := range a {
			digit := (k >> shift) & radixMask
			b[c[digit]] = k
			c[digit]++
		}
		a, b = b, a
	}
	return a
}
