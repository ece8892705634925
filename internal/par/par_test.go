package par

import (
	"sync"
	"testing"
)

// TestRunBlocks checks the block engine's contract: every index in
// [0, n) is processed exactly once, block bounds match the block index,
// and the serial path visits blocks in order. The size-1 cases are
// Each's path.
func TestRunBlocks(t *testing.T) {
	for _, tc := range []struct{ n, size, workers int }{
		{0, 64, 1}, {0, 64, 4}, {1, 64, 1}, {63, 64, 2}, {64, 64, 3}, {65, 64, 7},
		{1000, 64, 1}, {1000, 64, 4}, {4096, 64, 8}, {100, 64, 100},
		{14, 1, 1}, {14, 1, 2}, {14, 1, 3}, {14, 1, 7},
	} {
		var mu sync.Mutex
		seen := make([]int, tc.n)
		var serialOrder []int
		RunBlocks(tc.n, tc.size, tc.workers, func(wi, bi, lo, hi int) {
			if lo != bi*tc.size || hi != min(lo+tc.size, tc.n) || lo >= hi {
				t.Errorf("RunBlocks(%d,%d,%d): block %d has bounds [%d,%d)", tc.n, tc.size, tc.workers, bi, lo, hi)
			}
			mu.Lock()
			for i := lo; i < hi; i++ {
				seen[i]++
			}
			if tc.workers == 1 {
				serialOrder = append(serialOrder, bi)
			}
			mu.Unlock()
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("RunBlocks(%d,%d,%d): index %d processed %d times", tc.n, tc.size, tc.workers, i, c)
			}
		}
		for i := 1; i < len(serialOrder); i++ {
			if serialOrder[i] != serialOrder[i-1]+1 {
				t.Fatalf("serial path visited blocks out of order: %v", serialOrder)
			}
		}
		if want := NumBlocks(tc.n, tc.size); tc.workers == 1 && len(serialOrder) != want {
			t.Fatalf("RunBlocks(%d,%d,1): %d blocks visited, want %d", tc.n, tc.size, len(serialOrder), want)
		}
	}
}
