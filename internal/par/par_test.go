package par

import (
	"sync"
	"testing"
)

// TestRunBlocks checks the block engine's contract: every index in
// [0, n) is processed exactly once, block bounds match the block index,
// no more than min(workers, NumBlocks(n, size)) workers start, and one
// worker (a one-block input, or a worker count of 1) visits the blocks
// in order. The size-1 cases are Each's path.
func TestRunBlocks(t *testing.T) {
	for _, tc := range []struct{ n, size, workers int }{
		{0, 64, 1}, {0, 64, 4}, {1, 64, 1}, {63, 64, 2}, {64, 64, 3}, {65, 64, 7},
		{1000, 64, 1}, {1000, 64, 4}, {4096, 64, 8}, {100, 64, 100},
		{10, 8192, 8}, {8192, 8192, 2}, {8193, 8192, 8}, {1 << 20, 8192, 1},
		{14, 1, 1}, {14, 1, 2}, {14, 1, 3}, {14, 1, 7}, {3, 1, 8},
	} {
		var mu sync.Mutex
		seen := make([]int, tc.n)
		var order []int
		maxWorkers := min(tc.workers, NumBlocks(tc.n, tc.size))
		RunBlocks(tc.n, tc.size, tc.workers, func(wi, bi, lo, hi int) {
			if lo != bi*tc.size || hi != min(lo+tc.size, tc.n) || lo >= hi {
				t.Errorf("RunBlocks(%d,%d,%d): block %d has bounds [%d,%d)", tc.n, tc.size, tc.workers, bi, lo, hi)
			}
			if wi < 0 || wi >= maxWorkers {
				t.Errorf("RunBlocks(%d,%d,%d): worker index %d, want < %d", tc.n, tc.size, tc.workers, wi, maxWorkers)
			}
			mu.Lock()
			for i := lo; i < hi; i++ {
				seen[i]++
			}
			order = append(order, bi)
			mu.Unlock()
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("RunBlocks(%d,%d,%d): index %d processed %d times", tc.n, tc.size, tc.workers, i, c)
			}
		}
		if maxWorkers > 1 {
			continue
		}
		for i, bi := range order {
			if bi != i {
				t.Fatalf("RunBlocks(%d,%d,%d) on one worker visited blocks out of order: %v", tc.n, tc.size, tc.workers, order)
			}
		}
	}
}
