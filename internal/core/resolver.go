package core

import (
	"sync"

	"routergeo/internal/geo"
	"routergeo/internal/geodb"
	"routergeo/internal/ipx"
)

// resolver is one worker's lookup machinery for one provider: it
// resolves a whole block of addresses up front, then hands the scoring
// loop per-position record views. Local databases resolve through
// geodb.BatchIndexer — the sort-and-walk kernel plus an index into the
// shared record table, no per-address record copies — and everything
// else (a RemoteProvider) falls back to the provider's Lookup.
// Resolvers are pooled: the buffers and the radix scratch survive
// across blocks, workers and measurements, so steady-state sweeps
// allocate nothing per block. Not safe for concurrent use; one
// resolver per (worker, provider).
type resolver struct {
	// batch path
	batch geodb.BatchIndexer
	recs  []geodb.Record
	vecs  []geo.Vec3 // cached unit vector per record
	idxs  []int32
	sc    ipx.BatchScratch

	// fallback path
	db     geodb.Provider
	recbuf []geodb.Record
	okbuf  []bool

	// addrbuf extracts target addresses for resolveTargets.
	addrbuf []ipx.Addr
}

// resolverPool recycles resolvers. Sites must Get inline and hand the
// object back through putResolvers; the poolescape lint rule keeps
// pooled objects from outliving the sweep that got them.
var resolverPool = sync.Pool{New: func() any { return new(resolver) }}

// bind points the resolver at db, choosing the batch or fallback path.
func (r *resolver) bind(db geodb.Provider) {
	if b, ok := db.(geodb.BatchIndexer); ok {
		r.batch, r.recs, r.vecs, r.db = b, b.Records(), b.RecordVecs(), nil
		return
	}
	r.batch, r.recs, r.vecs, r.db = nil, nil, nil, db
}

// bindResolvers mints one worker's resolver per provider. The pool Gets
// stay inline per the poolescape rule's pairing with putResolvers at
// sweep end.
func bindResolvers(dbs []geodb.Provider) []*resolver {
	rs := make([]*resolver, len(dbs))
	for i, db := range dbs {
		r := resolverPool.Get().(*resolver)
		r.bind(db)
		rs[i] = r
	}
	return rs
}

// putResolvers returns one worker's resolvers to the pool, dropping the
// provider references so a pooled resolver never pins a hot-swapped
// database's memory.
func putResolvers(rs []*resolver) {
	for _, r := range rs {
		r.batch, r.recs, r.vecs, r.db = nil, nil, nil, nil
		resolverPool.Put(r)
	}
}

// grow returns s resized to n, reallocating only when capacity is
// short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// resolve answers one block of addresses; rec(k) then reads position k.
func (r *resolver) resolve(addrs []ipx.Addr) {
	n := len(addrs)
	if r.batch != nil {
		r.idxs = grow(r.idxs, n)
		r.batch.LookupIndexBatch(addrs, r.idxs, &r.sc)
		return
	}
	r.recbuf = grow(r.recbuf, n)
	r.okbuf = grow(r.okbuf, n)
	for i, a := range addrs {
		r.recbuf[i], r.okbuf[i] = r.db.Lookup(a)
	}
}

// resolveTargets is resolve over a target block's addresses.
func (r *resolver) resolveTargets(targets []Target) {
	r.addrbuf = grow(r.addrbuf, len(targets))
	for i := range targets {
		r.addrbuf[i] = targets[i].Addr
	}
	r.resolve(r.addrbuf)
}

// rec returns the record answering the k-th address of the last
// resolved block, or ok == false for a miss. The returned pointer is
// valid until the next resolve and must not be written through.
func (r *resolver) rec(k int) (rec *geodb.Record, ok bool) {
	if r.batch != nil {
		i := r.idxs[k]
		if i < 0 {
			return nil, false
		}
		return &r.recs[i], true
	}
	if !r.okbuf[k] {
		return nil, false
	}
	return &r.recbuf[k], true
}

// vec returns the unit vector of rec's coordinates, where rec is the
// record rec(k) reported for the last resolved block: the cached table
// entry on the batch path, computed on the fly otherwise. Both give the
// same bits — the table is built by the same Coordinate.Vec — so batch
// and fallback sweeps score identically.
func (r *resolver) vec(k int, rec *geodb.Record) geo.Vec3 {
	if r.vecs != nil {
		return r.vecs[r.idxs[k]]
	}
	return rec.Coord.Vec()
}
