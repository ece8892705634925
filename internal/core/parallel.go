package core

import (
	"context"
	"slices"
	"strings"

	"routergeo/internal/geodb"
	"routergeo/internal/ipx"
	"routergeo/internal/obs"
	"routergeo/internal/par"
)

// The parallel measurement engine. Every measurement in this package is
// embarrassingly parallel — no cross-address state — so each one runs
// as a block map-reduce on internal/par's scheduler: the input is cut
// into fixed-size blocks the workers steal off a shared cursor, and
// per-worker partials merge after the last block. Two properties keep
// the result byte-identical to the serial loop's, whatever the
// goroutine schedule: counter sums and ECDF sample multisets are
// accumulation-order-free, and the one order-sensitive output
// (CityAnsweredInAll's survivor list) is stored per block and
// concatenated in block order. The single-worker case visits the same
// blocks in index order on the caller's goroutine with no goroutines
// spawned, and doubles as the oracle the equality tests compare
// against.
//
// Blocks are also the batch-lookup grain: each worker resolves a whole
// block through geodb.BatchIndexer (sort-and-walk, see ipx.FindBatch)
// before scoring it, and per-block obs.Progress updates replace the
// per-address ones that used to dominate sweep profiles.

// blockSize is the work-stealing grain and the batch-lookup unit: big
// enough that claiming a block (one atomic add) is noise, small enough
// that a sweep splits into many more blocks than workers, so uneven
// per-block cost rebalances. A one-block input runs on the caller's
// goroutine, since par.RunBlocks starts no more workers than blocks. A
// variable so tests can force multi-block schedules on tiny inputs.
var blockSize = 8192

// slot pads a per-worker partial to its own cache line, so workers
// tallying into parts[wi] never false-share with their neighbours.
type slot[T any] struct {
	v T
	_ [64]byte
}

// sweep runs one measurement over items — addresses or targets — on
// the block engine. It opens the stage's span and progress reporter,
// offers the whole input once to every provider that prefetches, binds
// one pooled resolver per (worker, provider), resolves each block in
// every provider and then calls score with the worker's partial, the
// block's index and [lo, hi) bounds, and the resolvers: rs[i] answers
// dbs[i], and block position k is items[lo+k]. It returns the
// per-worker partials, for the caller to sum; a partial owns whatever
// it collected, distance samples included, and a worker that claimed
// no block leaves its partial zero.
func sweep[T ipx.Addr | Target, P any](ctx context.Context, stage string, dbs []geodb.Provider, items []T,
	score func(p *P, bi, lo, hi int, rs []*resolver)) []P {
	names := make([]string, len(dbs))
	for i, db := range dbs {
		names[i] = db.Name()
	}
	label := strings.Join(names, "/")
	ctx, sp := obs.Start(ctx, stage)
	defer sp.End()
	sp.SetAttr("dbs", label)
	sp.SetItems(int64(len(items)))
	workers := min(par.Workers(), par.NumBlocks(len(items), blockSize))
	sp.SetAttr("workers", workers)
	prog := obs.NewProgress(stage+" "+label, int64(len(items)))
	defer prog.Finish()

	var addrs []ipx.Addr
	var targets []Target
	switch v := any(items).(type) {
	case []ipx.Addr:
		addrs = v
	case []Target:
		targets = v
	}
	// One up-front prefetch per provider for the whole input: a remote
	// provider pipelines the full batch through its own worker pool
	// instead of being serialized by per-block calls inside the workers.
	// Target addresses are copied out only when some provider wants them.
	for _, db := range dbs {
		if p, ok := db.(Prefetcher); ok {
			if addrs == nil {
				addrs = make([]ipx.Addr, len(targets))
				for i := range targets {
					addrs[i] = targets[i].Addr
				}
			}
			_ = p.Prefetch(ctx, addrs)
		}
	}

	parts := make([]slot[P], workers)
	res := make([][]*resolver, workers)
	par.RunBlocks(len(items), blockSize, workers, func(wi, bi, lo, hi int) {
		rs := res[wi]
		if rs == nil {
			rs = bindResolvers(dbs)
			res[wi] = rs
		}
		for _, r := range rs {
			if targets != nil {
				r.resolveTargets(targets[lo:hi])
			} else {
				r.resolve(addrs[lo:hi])
			}
		}
		score(&parts[wi].v, bi, lo, hi, rs)
		prog.Add(int64(hi - lo))
	})
	for _, rs := range res {
		putResolvers(rs)
	}
	out := make([]P, workers)
	for i := range parts {
		out[i] = parts[i].v
	}
	return out
}

// joinSamples joins per-worker sample slices into one CDF backing
// array. A one-worker sweep's slice is adopted without a copy.
func joinSamples(parts [][]float64) []float64 {
	if len(parts) == 1 {
		return parts[0]
	}
	return slices.Concat(parts...)
}
