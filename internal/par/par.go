// Package par is the block engine the measurement and build layers fan
// out on: a configured worker count and a block scheduler that spreads
// a range of indexes over that many goroutines. It imports nothing
// internal, so every layer can use it: core's measurement sweeps, ark's
// monitor trees and the experiment runners.
//
// The scheduler cuts the input into fixed-size blocks, and the workers
// claim blocks off a shared atomic cursor (work stealing: a worker
// stalled on a page miss or a slow remote batch cannot idle the others,
// unlike a one-big-chunk-per-worker split). The single-worker case
// visits the same blocks in index order on the caller's goroutine with
// no goroutines spawned, so a caller whose per-block results merge in
// block order, or commute, gets the same bytes at any worker count.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// setting holds the configured worker count; <= 0 means "use
// GOMAXPROCS".
var setting atomic.Int64

// SetParallelism fixes the engine's worker count. n <= 0 restores the
// default of GOMAXPROCS; n == 1 forces the serial path everywhere.
// routergeo wires its -parallelism flag here.
func SetParallelism(n int) { setting.Store(int64(n)) }

// Workers returns the resolved worker count the engine uses for large
// inputs.
func Workers() int {
	if n := setting.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// NumBlocks returns how many blocks of the given size [0, n) splits
// into.
func NumBlocks(n, size int) int { return (n + size - 1) / size }

// RunBlocks executes process once per size-item block of [0, n) and
// waits for all of them. workers == 1 visits the blocks in index order
// on the caller's goroutine; otherwise workers goroutines claim blocks
// off an atomic cursor. process receives the claiming worker's index wi
// (for per-worker state: resolvers, partials), the block index bi
// (for order-sensitive merges) and the block's [lo, hi) bounds.
//
//geolint:hotpath
func RunBlocks(n, size, workers int, process func(wi, bi, lo, hi int)) {
	nb := NumBlocks(n, size)
	if workers <= 1 {
		for bi := 0; bi < nb; bi++ {
			lo := bi * size
			process(0, bi, lo, min(lo+size, n))
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for wi := 0; wi < workers; wi++ {
		//lint:ignore hotalloc the bound is one closure per worker per call, whatever n is: at the default scale nothing amortizes it (the 9,575-address Ark sweep is 2 blocks, Each claims 3-60 items); BenchmarkAccuracy/workers=N allocs/op in BENCH_core.json checks it
		go func(wi int) {
			defer wg.Done()
			for {
				bi := int(cursor.Add(1)) - 1
				if bi >= nb {
					return
				}
				lo := bi * size
				process(wi, bi, lo, min(lo+size, n))
			}
		}(wi)
	}
	wg.Wait()
}

// Each runs fn(i) once for every i in [0, n) on the engine: size-1
// blocks claimed off the same cursor by as many workers as the engine
// has (see SetParallelism), but never more than n. At one worker it
// runs in index order on the caller's goroutine. It fans out a handful
// of independent, coarse tasks (paper artifacts, drift epochs, vendor
// builds, Ark's monitor trees); a caller that needs ordered output
// buffers per item and writes after Each returns.
func Each(n int, fn func(i int)) {
	RunBlocks(n, 1, min(Workers(), n), func(_, i, _, _ int) { fn(i) })
}
