package httpapi

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"routergeo/internal/geodb"
	"routergeo/internal/ipx"
)

// RemoteProvider adapts a Client into a geodb.Provider that performs
// well over a network: addresses are fetched in /v2/lookup batches
// through the client's bounded worker pool and cached, so a core
// evaluation loop of single Lookup calls runs at near-local throughput
// instead of paying one round trip per address.
//
// It implements core's Prefetcher hook: evaluation entry points hand
// their whole target list over before the first Lookup, which turns the
// paper's 1.64M-address sweep into a few dozen pipelined requests.
// Addresses that were never prefetched fall back to a single remote
// lookup per call.
//
// When the remote is unreachable (retries exhausted, circuit open) the
// provider degrades instead of silently mis-scoring:
//
//   - with WithFallback, the answer comes from the local fallback
//     provider and the lookup counts as degraded;
//   - without one, the lookup counts as tainted and reports a miss,
//     uncached, so a later attempt can still hit a healed server.
//
// Degraded/tainted tallies surface through Degraded/Tainted, the
// client's metrics registry (client.outage.*) and, via obs.Run.SetTaint,
// the run manifest.
type RemoteProvider struct {
	c        *Client
	fallback geodb.Provider

	degraded atomic.Int64
	tainted  atomic.Int64

	mu    sync.RWMutex
	cache map[ipx.Addr]cachedRecord
}

type cachedRecord struct {
	rec   geodb.Record
	found bool
}

// RemoteOption configures NewRemoteProvider.
type RemoteOption func(*RemoteProvider)

// WithFallback arms graceful degradation: when the remote cannot answer,
// lookups are served by local instead of reporting a (wrong) miss. For
// the degradation to be lossless, local must hold the same database the
// client is pinned to.
func WithFallback(local geodb.Provider) RemoteOption {
	return func(p *RemoteProvider) { p.fallback = local }
}

// NewRemoteProvider wraps c, which must have a database pinned
// (Client.DB / WithDatabase) so lookups have a well-defined answer.
func NewRemoteProvider(c *Client, opts ...RemoteOption) (*RemoteProvider, error) {
	if c.DB == "" {
		return nil, fmt.Errorf("httpapi: RemoteProvider needs a pinned database (set Client.DB or WithDatabase)")
	}
	p := &RemoteProvider{c: c, cache: make(map[ipx.Addr]cachedRecord)}
	for _, o := range opts {
		o(p)
	}
	return p, nil
}

// Name implements geodb.Provider.
func (p *RemoteProvider) Name() string { return p.c.DB }

// Prefetch resolves every not-yet-cached address through batched,
// concurrent /v2/lookup requests, bounded by ctx. It is idempotent and
// cheap to call repeatedly with overlapping address sets (per-RIR and
// per-country evaluation slices re-prefetch subsets of the same
// targets). Every chunk the remote answers is cached. A chunk it cannot
// serve is resolved locally when a fallback is armed — degraded but
// correct. Without one the chunk stays uncached, so a later Lookup asks
// again, and Prefetch returns the first error.
func (p *RemoteProvider) Prefetch(ctx context.Context, addrs []ipx.Addr) error {
	p.mu.RLock()
	missing := make([]ipx.Addr, 0, len(addrs))
	seen := make(map[ipx.Addr]bool, len(addrs))
	for _, a := range addrs {
		if seen[a] {
			continue
		}
		seen[a] = true
		if _, ok := p.cache[a]; !ok {
			missing = append(missing, a)
		}
	}
	p.mu.RUnlock()
	if len(missing) == 0 {
		return nil
	}

	db := p.c.DB
	err := p.c.lookupChunks(ctx, len(missing), func(lo, hi int) []byte {
		return appendLookupRequest(make([]byte, 0, 18*(hi-lo)+len(db)+16), missing[lo:hi], db)
	}, func(lo, hi int, ans *lookupAnswer, err error) {
		if err != nil {
			if p.fallback == nil {
				return
			}
			for _, a := range missing[lo:hi] {
				rec, found := p.fallback.Lookup(a)
				p.mu.Lock()
				p.cache[a] = cachedRecord{rec: rec, found: found}
				p.mu.Unlock()
			}
			p.countDegraded(int64(hi - lo))
			return
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		for i, a := range missing[lo:hi] {
			rj, errText := ans.result(i, db)
			if errText != "" {
				continue
			}
			rec, found := toRecord(rj)
			p.cache[a] = cachedRecord{rec: rec, found: found}
		}
	})
	if p.fallback != nil {
		return nil
	}
	return err
}

// Lookup implements geodb.Provider: cached answers are served locally;
// anything else falls back to one remote lookup (negative answers are
// cached too, so an uncovered address costs one round trip once). When
// the remote cannot answer, the call degrades per the provider contract
// described on RemoteProvider.
func (p *RemoteProvider) Lookup(a ipx.Addr) (geodb.Record, bool) {
	p.mu.RLock()
	c, ok := p.cache[a]
	p.mu.RUnlock()
	if ok {
		return c.rec, c.found
	}
	rec, found, err := p.c.TryLookup(p.c.rootCtx(), a)
	if err != nil {
		if p.fallback != nil {
			rec, found = p.fallback.Lookup(a)
			// Cached: the fallback holds the same database, and caching
			// keeps a dead remote from being re-dialed per address.
			p.mu.Lock()
			p.cache[a] = cachedRecord{rec: rec, found: found}
			p.mu.Unlock()
			p.countDegraded(1)
			return rec, found
		}
		p.countTainted(1)
		// Not cached: a later retry against a healed server may answer.
		return geodb.Record{}, false
	}
	p.mu.Lock()
	p.cache[a] = cachedRecord{rec: rec, found: found}
	p.mu.Unlock()
	return rec, found
}

func (p *RemoteProvider) countDegraded(n int64) {
	p.degraded.Add(n)
	if p.c.reg != nil {
		p.c.reg.Counter("client.outage.degraded_lookups").Add(n)
	}
}

func (p *RemoteProvider) countTainted(n int64) {
	p.tainted.Add(n)
	if p.c.reg != nil {
		p.c.reg.Counter("client.outage.tainted_lookups").Add(n)
	}
}

// Degraded counts lookups answered by the local fallback because the
// remote was unreachable. Non-zero means the run survived an outage
// losslessly (assuming the fallback matches the remote database).
func (p *RemoteProvider) Degraded() int64 { return p.degraded.Load() }

// Tainted counts lookups that reported a miss only because the remote
// was unreachable and no fallback was armed. Non-zero means coverage
// numbers undercount and the run manifest should carry the taint.
func (p *RemoteProvider) Tainted() int64 { return p.tainted.Load() }

// Cached reports how many addresses are resolved locally;
// TestRemoteProviderTaintsWithoutFallback checks through it that an
// outage miss is not cached.
func (p *RemoteProvider) Cached() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.cache)
}

// Err exposes the underlying client's last transport error.
func (p *RemoteProvider) Err() error { return p.c.Err() }

// GenerationFlips exposes how many times the server generation changed
// under this provider's client. Non-zero after a sweep means the remote
// hot-reloaded mid-sweep; the run manifest should record the taint.
func (p *RemoteProvider) GenerationFlips() int64 { return p.c.GenerationFlips() }

// TransportErrors exposes the underlying client's failure count.
func (p *RemoteProvider) TransportErrors() int64 { return p.c.TransportErrors() }

// compile-time interface check
var _ geodb.Provider = (*RemoteProvider)(nil)
