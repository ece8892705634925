package httpapi

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"testing"

	"routergeo/internal/ipx"
	"routergeo/internal/obs"
)

func TestRemoteProviderNeedsPinnedDB(t *testing.T) {
	if _, err := NewRemoteProvider(NewClient("http://x")); err == nil {
		t.Fatal("RemoteProvider without a pinned database must be rejected")
	}
}

// countingTransport tallies round trips so tests can prove batching
// actually collapses the request count.
type countingTransport struct {
	calls atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.calls.Add(1)
	return http.DefaultTransport.RoundTrip(req)
}

func TestRemoteProviderPrefetchMatchesLocal(t *testing.T) {
	srv := testServer(t)
	local := testDBs(t)[0] // alpha
	ct := &countingTransport{}
	p, err := NewRemoteProvider(NewClient(srv.URL,
		WithDatabase("alpha"),
		WithConcurrency(4),
		WithClientMaxBatch(50),
		WithHTTPClient(&http.Client{Transport: ct})))
	if err != nil {
		t.Fatal(err)
	}

	n := 500
	addrs := make([]ipx.Addr, n)
	for i := range addrs {
		addrs[i] = ipx.MustParseAddr(fmt.Sprintf("10.0.%d.%d", i/200, i%200+1))
	}
	addrs = append(addrs, ipx.MustParseAddr("192.0.2.7")) // a genuine miss

	if err := p.Prefetch(context.Background(), addrs); err != nil {
		t.Fatal(err)
	}
	wantReqs := int64((len(addrs) + 49) / 50)
	if got := ct.calls.Load(); got != wantReqs {
		t.Errorf("prefetch used %d requests, want %d (batching broken)", got, wantReqs)
	}
	if p.Cached() != len(addrs) {
		t.Errorf("Cached = %d, want %d", p.Cached(), len(addrs))
	}

	// Every post-prefetch Lookup is served locally: the request count
	// must not move while answers stay bit-identical to the local DB.
	before := ct.calls.Load()
	for _, a := range addrs {
		lr, lok := local.Lookup(a)
		rr, rok := p.Lookup(a)
		if lok != rok || lr != rr {
			t.Fatalf("%s: local (%+v,%v) != remote (%+v,%v)", a, lr, lok, rr, rok)
		}
	}
	if got := ct.calls.Load(); got != before {
		t.Errorf("cached lookups issued %d extra requests", got-before)
	}

	// Re-prefetching the same set is free.
	if err := p.Prefetch(context.Background(), addrs); err != nil {
		t.Fatal(err)
	}
	if got := ct.calls.Load(); got != before {
		t.Errorf("idempotent prefetch issued %d extra requests", got-before)
	}
	if err := p.Err(); err != nil {
		t.Errorf("Err = %v", err)
	}
}

func TestRemoteProviderFallbackWithoutPrefetch(t *testing.T) {
	srv := testServer(t)
	p, err := NewRemoteProvider(NewClient(srv.URL, WithDatabase("alpha")))
	if err != nil {
		t.Fatal(err)
	}
	a := ipx.MustParseAddr("10.0.0.1")
	rec, ok := p.Lookup(a)
	if !ok || rec.City != "Dallas" {
		t.Fatalf("fallback lookup = (%+v, %v)", rec, ok)
	}
	if p.Cached() != 1 {
		t.Errorf("Cached = %d, want 1 (fallback answers are cached)", p.Cached())
	}
}

func TestRemoteProviderPrefetchSurfacesOutage(t *testing.T) {
	p, err := NewRemoteProvider(NewClient("http://127.0.0.1:1",
		WithDatabase("alpha"), WithRetries(0)))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Prefetch(context.Background(), []ipx.Addr{ipx.MustParseAddr("10.0.0.1")}); err == nil {
		t.Fatal("prefetch against a dead server must error")
	}
	if p.Err() == nil || p.TransportErrors() == 0 {
		t.Error("outage must register on the provider's error surface")
	}
	// The failed addresses were not cached as misses.
	if p.Cached() != 0 {
		t.Errorf("Cached = %d after failed prefetch, want 0", p.Cached())
	}
}

func TestRemoteProviderPartialPrefetchTopUp(t *testing.T) {
	srv := testServer(t)
	ct := &countingTransport{}
	p, err := NewRemoteProvider(NewClient(srv.URL,
		WithDatabase("alpha"), WithClientMaxBatch(100),
		WithHTTPClient(&http.Client{Transport: ct})))
	if err != nil {
		t.Fatal(err)
	}
	first := []ipx.Addr{ipx.MustParseAddr("10.0.0.1"), ipx.MustParseAddr("10.0.0.2")}
	if err := p.Prefetch(context.Background(), first); err != nil {
		t.Fatal(err)
	}
	// A superset prefetch only fetches the delta.
	super := append(append([]ipx.Addr(nil), first...), ipx.MustParseAddr("10.0.0.3"))
	if err := p.Prefetch(context.Background(), super); err != nil {
		t.Fatal(err)
	}
	if got := ct.calls.Load(); got != 2 {
		t.Errorf("requests = %d, want 2 (one per prefetch, second fetches only the delta)", got)
	}
	if p.Cached() != 3 {
		t.Errorf("Cached = %d, want 3", p.Cached())
	}
}

func TestRemoteProviderDegradesToFallback(t *testing.T) {
	local := testDBs(t)[0] // alpha, same content the server would serve
	reg := obs.NewRegistry()
	dead := NewClient("http://127.0.0.1:1",
		WithDatabase("alpha"),
		WithRetries(0),
		WithClientMetrics(reg))
	p, err := NewRemoteProvider(dead, WithFallback(local))
	if err != nil {
		t.Fatal(err)
	}

	addrs := []ipx.Addr{
		ipx.MustParseAddr("10.0.0.1"),
		ipx.MustParseAddr("10.0.0.2"),
		ipx.MustParseAddr("192.0.2.7"), // a genuine miss, even locally
	}
	// Prefetch against the dead server falls back wholesale.
	if err := p.Prefetch(context.Background(), addrs); err != nil {
		t.Fatalf("prefetch with fallback must degrade, not fail: %v", err)
	}
	for _, a := range addrs {
		lr, lok := local.Lookup(a)
		rr, rok := p.Lookup(a)
		if lok != rok || lr != rr {
			t.Fatalf("%s: degraded (%+v,%v) != local (%+v,%v)", a, rr, rok, lr, lok)
		}
	}
	if got := p.Degraded(); got != int64(len(addrs)) {
		t.Errorf("Degraded = %d, want %d", got, len(addrs))
	}
	if got := p.Tainted(); got != 0 {
		t.Errorf("Tainted = %d, want 0 (fallback answered)", got)
	}

	// An un-prefetched address degrades per lookup too.
	extra := ipx.MustParseAddr("10.0.0.9")
	lr, lok := local.Lookup(extra)
	if rr, rok := p.Lookup(extra); rok != lok || rr != lr {
		t.Fatalf("per-lookup degradation = (%+v,%v), want local answer", rr, rok)
	}
	if got := p.Degraded(); got != int64(len(addrs))+1 {
		t.Errorf("Degraded = %d, want %d", got, len(addrs)+1)
	}

	// The registry carries the tallies for /v2/stats and the manifest.
	snap := reg.Snapshot()
	if got := snap.Counters["client.outage.degraded_lookups"]; got != int64(len(addrs))+1 {
		t.Errorf("degraded_lookups counter = %d, want %d", got, len(addrs)+1)
	}
	if snap.Counters["client.outage.transport_errors"] == 0 {
		t.Error("transport_errors counter = 0, want > 0")
	}
}

func TestRemoteProviderTaintsWithoutFallback(t *testing.T) {
	reg := obs.NewRegistry()
	dead := NewClient("http://127.0.0.1:1",
		WithDatabase("alpha"),
		WithRetries(0),
		WithClientMetrics(reg))
	p, err := NewRemoteProvider(dead)
	if err != nil {
		t.Fatal(err)
	}
	a := ipx.MustParseAddr("10.0.0.1")
	if _, ok := p.Lookup(a); ok {
		t.Fatal("outage lookup without fallback must miss")
	}
	if got := p.Tainted(); got != 1 {
		t.Errorf("Tainted = %d, want 1", got)
	}
	if got := p.Degraded(); got != 0 {
		t.Errorf("Degraded = %d, want 0 (no fallback armed)", got)
	}
	if p.Cached() != 0 {
		t.Error("tainted misses must not be cached; a healed server should get asked again")
	}
	if got := reg.Snapshot().Counters["client.outage.tainted_lookups"]; got != 1 {
		t.Errorf("tainted_lookups counter = %d, want 1", got)
	}
}

// failAddrTransport fails every request whose body carries addr and
// counts the round trips it lets through.
type failAddrTransport struct {
	addr  string
	calls atomic.Int64
}

func (f *failAddrTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	b, err := io.ReadAll(req.Body)
	if err != nil {
		return nil, err
	}
	if bytes.Contains(b, []byte(`"`+f.addr+`"`)) {
		return nil, errors.New("injected failure for the chunk carrying " + f.addr)
	}
	f.calls.Add(1)
	req.Body = io.NopCloser(bytes.NewReader(b))
	return http.DefaultTransport.RoundTrip(req)
}

// TestRemoteProviderPrefetchKeepsAnsweredChunks fails the one chunk of
// ten that carries a chosen address: the nine answered chunks must be
// cached whatever happened to the tenth, and only the failed chunk's
// addresses may reach the fallback.
func TestRemoteProviderPrefetchKeepsAnsweredChunks(t *testing.T) {
	srv := testServer(t)
	local := testDBs(t)[0] // alpha
	addrs := make([]ipx.Addr, 500)
	for i := range addrs {
		addrs[i] = ipx.MustParseAddr(fmt.Sprintf("10.0.%d.%d", i/200, i%200+1))
	}
	const bad = 137 // in chunk [100, 150)
	newProvider := func(ft *failAddrTransport, opts ...RemoteOption) *RemoteProvider {
		p, err := NewRemoteProvider(NewClient(srv.URL,
			WithDatabase("alpha"),
			WithRetries(0),
			WithClientMaxBatch(50),
			WithHTTPClient(&http.Client{Transport: ft})), opts...)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	ft := &failAddrTransport{addr: addrs[bad].String()}
	p := newProvider(ft)
	if err := p.Prefetch(context.Background(), addrs); err == nil {
		t.Fatal("prefetch with a failed chunk and no fallback must return its error")
	}
	if got := p.Cached(); got != 450 {
		t.Errorf("Cached = %d, want 450 (every answered chunk)", got)
	}
	before := ft.calls.Load()
	for i, a := range addrs {
		if i/50 == bad/50 {
			continue
		}
		lr, lok := local.Lookup(a)
		if rr, rok := p.Lookup(a); lok != rok || lr != rr {
			t.Fatalf("%s: cached (%+v,%v) != local (%+v,%v)", a, rr, rok, lr, lok)
		}
	}
	if got := ft.calls.Load(); got != before {
		t.Errorf("lookups of answered addresses made %d requests, want 0", got-before)
	}

	p = newProvider(&failAddrTransport{addr: addrs[bad].String()}, WithFallback(local))
	if err := p.Prefetch(context.Background(), addrs); err != nil {
		t.Fatalf("prefetch with a fallback must degrade, not fail: %v", err)
	}
	if got := p.Degraded(); got != 50 {
		t.Errorf("Degraded = %d, want 50 (the failed chunk only)", got)
	}
	if got := p.Cached(); got != len(addrs) {
		t.Errorf("Cached = %d, want %d", got, len(addrs))
	}
}
