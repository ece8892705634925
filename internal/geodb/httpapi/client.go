package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"routergeo/internal/geodb"
	"routergeo/internal/ipx"
	"routergeo/internal/obs"
)

// Client defaults, applied by NewClient; a zero/struct-literal Client
// has none of them (no retries, no timeout, no breaker).
const (
	DefaultRetries     = 2
	DefaultBackoff     = 100 * time.Millisecond
	DefaultTimeout     = 30 * time.Second
	DefaultConcurrency = 4
	// DefaultClientMaxBatch is the client-side chunk size for
	// BatchLookup; requests never exceed it even when the server would
	// accept more.
	DefaultClientMaxBatch = 10_000
	// DefaultMaxBackoff caps any single retry delay, whatever the
	// attempt count or Retry-After header asks for.
	DefaultMaxBackoff = 30 * time.Second
)

// ClientOption configures NewClient.
type ClientOption func(*Client)

// WithRetries sets how many times a failed request (transport error,
// 5xx or 429) is reissued before giving up.
func WithRetries(n int) ClientOption {
	return func(c *Client) {
		if n >= 0 {
			c.retries = n
		}
	}
}

// WithBackoff sets the base retry delay; attempt k waits up to base<<k,
// jittered, never past the WithMaxBackoff cap.
func WithBackoff(base time.Duration) ClientOption {
	return func(c *Client) {
		if base >= 0 {
			c.backoff = base
		}
	}
}

// WithMaxBackoff caps every retry delay — the exponential schedule and
// server Retry-After hints alike.
func WithMaxBackoff(d time.Duration) ClientOption {
	return func(c *Client) {
		if d > 0 {
			c.maxBackoff = d
		}
	}
}

// WithConcurrency sets the worker-pool width BatchLookup (and
// RemoteProvider prefetches) fan chunks out over.
func WithConcurrency(n int) ClientOption {
	return func(c *Client) {
		if n > 0 {
			c.concurrency = n
		}
	}
}

// WithClientMaxBatch sets the per-request chunk size for BatchLookup.
func WithClientMaxBatch(n int) ClientOption {
	return func(c *Client) {
		if n > 0 {
			c.maxBatch = n
		}
	}
}

// WithDatabase pins every Provider-style lookup to one database, as the
// geodb.Provider adapter requires.
func WithDatabase(name string) ClientOption {
	return func(c *Client) { c.DB = name }
}

// WithHTTPClient swaps the underlying *http.Client;
// TestClientRetriesTransportErrors fails requests through a custom
// transport set with it.
func WithHTTPClient(h *http.Client) ClientOption {
	return func(c *Client) { c.HTTPClient = h }
}

// WithClientLogger routes the client's retry warnings through l instead
// of the process default logger; TestClientLogsRetries reads the
// warnings it captures.
func WithClientLogger(l *slog.Logger) ClientOption {
	return func(c *Client) { c.logger = l }
}

// WithBreaker configures the per-host circuit breaker: threshold
// consecutive failed attempts open it, and an open breaker rejects
// requests for cooldown before letting a single probe through.
// threshold 0 disables the breaker.
func WithBreaker(threshold int, cooldown time.Duration) ClientOption {
	return func(c *Client) {
		c.brThreshold = threshold
		if cooldown > 0 {
			c.brCooldown = cooldown
		}
	}
}

// WithClientMetrics registers the client's resilience instruments —
// breaker state/opens/short-circuits under client.breaker.<host>.*,
// outage tallies under client.outage.* — in reg. Handing it a server
// Handler.Registry() makes them visible on that server's /v2/stats;
// handing it an obs.Run registry lands them in the run manifest.
func WithClientMetrics(reg *obs.Registry) ClientOption {
	return func(c *Client) { c.reg = reg }
}

// WithBaseContext sets the context Provider-shaped entry points
// (Lookup, TryLookup via RemoteProvider, Stats) derive their
// request contexts from, since the geodb.Provider interface cannot carry
// one. Cancelling it aborts their in-flight retries.
func WithBaseContext(ctx context.Context) ClientOption {
	return func(c *Client) { c.baseCtx = ctx }
}

// Client talks to a server created by NewHandler. The zero value with
// only BaseURL set is a valid client; NewClient additionally arms
// retries, capped+jittered backoff, timeouts, batch concurrency and the
// circuit breaker.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// DB optionally pins every lookup to one database; required for the
	// geodb.Provider adapter.
	DB string

	retries     int
	backoff     time.Duration
	maxBackoff  time.Duration
	timeout     time.Duration
	concurrency int
	maxBatch    int
	brThreshold int
	brCooldown  time.Duration
	baseCtx     context.Context
	reg         *obs.Registry
	// sleep is swapped out by tests to avoid real backoff waits.
	sleep func(time.Duration)
	// jitter picks a random duration in [0, n]; tests pin it to n so
	// backoff assertions stay exact.
	jitter func(n time.Duration) time.Duration
	// logger defaults to slog.Default at call time, so binaries that
	// configure logging flags after building the client still apply.
	logger *slog.Logger

	br            *breaker
	transportErrs atomic.Int64
	mu            sync.Mutex
	lastErr       error

	// gen tracks the last generation observed and genFlips counts
	// changes, so a sweep can detect a server hot reload happening
	// underneath it.
	genMu    sync.Mutex
	gen      string
	genFlips atomic.Int64
}

// NewClient builds a resilient client with the Default* settings, then
// applies opts.
func NewClient(baseURL string, opts ...ClientOption) *Client {
	c := &Client{
		BaseURL:     baseURL,
		retries:     DefaultRetries,
		backoff:     DefaultBackoff,
		maxBackoff:  DefaultMaxBackoff,
		timeout:     DefaultTimeout,
		concurrency: DefaultConcurrency,
		maxBatch:    DefaultClientMaxBatch,
		brThreshold: DefaultBreakerThreshold,
		brCooldown:  DefaultBreakerCooldown,
	}
	for _, o := range opts {
		o(c)
	}
	if c.brThreshold > 0 {
		c.br = newBreaker(hostOf(baseURL), c.brThreshold, c.brCooldown)
		if c.reg != nil {
			c.br.bindRegistry(c.reg)
		}
	}
	return c
}

// hostOf extracts the host a breaker is keyed by.
func hostOf(baseURL string) string {
	if u, err := url.Parse(baseURL); err == nil && u.Host != "" {
		return u.Host
	}
	return baseURL
}

// BreakerStats snapshots the circuit breaker. The zero value means the
// breaker is disabled.
func (c *Client) BreakerStats() BreakerStats {
	if c.br == nil {
		return BreakerStats{}
	}
	return c.br.stats()
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) workers() int {
	if c.concurrency > 0 {
		return c.concurrency
	}
	return 1
}

func (c *Client) batchSize() int {
	if c.maxBatch > 0 {
		return c.maxBatch
	}
	return DefaultClientMaxBatch
}

// rootCtx is the fallback for entry points whose signatures cannot carry
// a context (the geodb.Provider interface); WithBaseContext overrides.
func (c *Client) rootCtx() context.Context {
	if c.baseCtx != nil {
		return c.baseCtx
	}
	//lint:ignore ctxfirst Provider-shaped entry points have no context parameter; WithBaseContext is the threading path
	return context.Background()
}

// Err returns the last transport-level error the client hit (nil when
// every request so far succeeded). A remote-evaluation run checks this
// after scoring: a non-nil value means some misses may be outages, not
// genuine database gaps, and the coverage numbers are tainted.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastErr
}

// TransportErrors counts transport-level failures (including exhausted
// retries and breaker rejections) over the client's lifetime.
func (c *Client) TransportErrors() int64 { return c.transportErrs.Load() }

func (c *Client) log() *slog.Logger {
	if c.logger != nil {
		return c.logger
	}
	return slog.Default()
}

func (c *Client) recordErr(err error) {
	c.transportErrs.Add(1)
	if c.reg != nil {
		c.reg.Counter("client.outage.transport_errors").Inc()
	}
	c.mu.Lock()
	c.lastErr = err
	c.mu.Unlock()
}

// GenerationFlips counts how many times the observed server generation
// changed across this client's responses. Non-zero after a sweep means
// the server hot-reloaded mid-sweep and the answers may span database
// generations — the run manifest should carry that taint.
func (c *Client) GenerationFlips() int64 { return c.genFlips.Load() }

// observeGeneration tracks the generation header of one response.
// Flips tally in the registry as client.outage.generation_flips so they
// surface in /v2/stats and run manifests alongside the other taint
// signals.
func (c *Client) observeGeneration(g string) {
	if g == "" {
		return
	}
	c.genMu.Lock()
	prev := c.gen
	c.gen = g
	c.genMu.Unlock()
	if prev != "" && prev != g {
		c.genFlips.Add(1)
		if c.reg != nil {
			c.reg.Counter("client.outage.generation_flips").Inc()
		}
	}
}

// retryable reports whether a response status warrants a retry: server
// errors might heal and throttles ask for a later attempt; other client
// errors will not change.
func retryable(status int) bool {
	return status >= 500 || status == http.StatusTooManyRequests
}

// maxDelay is the hard cap on one retry sleep.
func (c *Client) maxDelay() time.Duration {
	if c.maxBackoff > 0 {
		return c.maxBackoff
	}
	return DefaultMaxBackoff
}

// backoffDelay computes the attempt-th retry delay: capped exponential
// growth from the base, with equal jitter (the delay lands uniformly in
// [d/2, d]) so a fleet of clients retrying against one recovering server
// does not stampede in lockstep. Shifts are capped before they can
// overflow time.Duration — the bug that used to turn large WithRetries
// values into negative, never-slept delays.
func (c *Client) backoffDelay(attempt int) time.Duration {
	d := c.backoff
	if d <= 0 {
		return 0
	}
	max := c.maxDelay()
	for i := 1; i < attempt; i++ {
		d <<= 1
		if d >= max || d <= 0 { // d <= 0 means the shift overflowed
			d = max
			break
		}
	}
	if d > max {
		d = max
	}
	half := d / 2
	return half + c.jitterIn(d-half)
}

// jitterIn picks a random duration in [0, n].
func (c *Client) jitterIn(n time.Duration) time.Duration {
	if n <= 0 {
		return 0
	}
	if c.jitter != nil {
		return c.jitter(n)
	}
	return time.Duration(rand.Int63n(int64(n) + 1))
}

// sleepCtx waits for d or until ctx is cancelled, whichever comes
// first. The test hook bypasses real waiting but still honors an
// already-cancelled context.
func (c *Client) sleepCtx(ctx context.Context, d time.Duration) error {
	if c.sleep != nil {
		c.sleep(d)
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// do issues one request with the client's retry/backoff/timeout/breaker
// policy and decodes the JSON answer into out. body non-nil makes it a
// POST. The caller's ctx bounds the whole retry loop — cancellation
// aborts in-flight attempts and pending backoff sleeps alike. Each retry
// emits a warn-level log line; exhausting all attempts logs a summary,
// so outage-tainted runs are visible without polling Err.
func (c *Client) do(ctx context.Context, path string, body []byte, out interface{}) error {
	var lastErr error
	var retryAfter time.Duration
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			delay := c.backoffDelay(attempt)
			if retryAfter > 0 {
				// Honor the server's throttle hint, inside the cap.
				delay = retryAfter
				if max := c.maxDelay(); delay > max {
					delay = max
				}
			}
			c.log().Warn("retrying request",
				"path", path,
				"attempt", attempt+1,
				"max_attempts", c.retries+1,
				"backoff", delay,
				"retry_after", retryAfter,
				"error", lastErr,
			)
			if delay > 0 {
				if err := c.sleepCtx(ctx, delay); err != nil {
					lastErr = err
					break
				}
			}
		}
		if err := ctx.Err(); err != nil {
			lastErr = err
			break
		}
		retryAfter = 0
		if c.br != nil {
			if err := c.br.allow(); err != nil {
				lastErr = err
				continue
			}
		}
		status, ra, err := c.once(ctx, path, body, out)
		if err == nil && !retryable(status) {
			if c.br != nil {
				c.br.success() // any well-formed answer means the host is up
			}
			if status != http.StatusOK {
				return fmt.Errorf("httpapi: %s: status %d", path, status)
			}
			return nil
		}
		if c.br != nil {
			c.br.failure()
		}
		if err == nil {
			err = fmt.Errorf("httpapi: %s: status %d", path, status)
			retryAfter = ra
		}
		lastErr = err
	}
	c.log().Error("request failed after all retries",
		"path", path,
		"attempts", c.retries+1,
		"error", lastErr,
	)
	c.recordErr(lastErr)
	return lastErr
}

// once issues a single attempt. A non-2xx status is returned for the
// caller to classify (along with any Retry-After hint); only
// transport-level failures come back as err.
func (c *Client) once(ctx context.Context, path string, body []byte, out interface{}) (int, time.Duration, error) {
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	method, rd := http.MethodGet, io.Reader(nil)
	if body != nil {
		method, rd = http.MethodPost, bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	c.observeGeneration(resp.Header.Get(GenerationHeader))
	if resp.StatusCode != http.StatusOK {
		// Drain so the connection can be reused, then report the status.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return resp.StatusCode, parseRetryAfter(resp.Header.Get("Retry-After")), nil
	}
	switch out := out.(type) {
	case nil:
	case *lookupAnswer:
		if err := out.read(resp.Body); err != nil {
			return 0, 0, err
		}
	default:
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return 0, 0, err
		}
	}
	return resp.StatusCode, 0, nil
}

// parseRetryAfter reads the delay-seconds form of a Retry-After header.
// The HTTP-date form needs a wall-clock comparison and is rare on lookup
// APIs, so it is treated as no hint.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	secs, err := strconv.Atoi(h)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// Stats fetches the server's /v2/stats counters;
// TestChaosStatsEndpointUnderFire reads the fault-exempt endpoint through
// it.
func (c *Client) Stats() (StatsResponse, error) {
	var s StatsResponse
	if err := c.do(c.rootCtx(), "/v2/stats", nil, &s); err != nil {
		return StatsResponse{}, err
	}
	return s, nil
}

// BatchLookup resolves many addresses through POST /v2/lookup,
// splitting the list into maxBatch-sized chunks fanned out over the
// configured worker pool. ctx bounds the whole fan-out, retries
// included — cancelling it stops workers mid-list. The result preserves
// input order; malformed addresses surface per-entry in
// BatchEntry.Error. The db filter is the client's pinned DB (empty =
// all databases).
func (c *Client) BatchLookup(ctx context.Context, ips []string) ([]BatchEntry, error) {
	if len(ips) == 0 {
		return nil, nil
	}
	entries := make([]BatchEntry, len(ips))
	err := c.lookupChunks(ctx, len(ips), func(lo, hi int) []byte {
		// Marshaled, not appendLookupRequest: a caller's string may need
		// escaping.
		return mustJSON(BatchRequest{IPs: ips[lo:hi], DB: c.DB})
	}, func(lo, hi int, a *lookupAnswer, err error) {
		if err != nil {
			return
		}
		for i := lo; i < hi; i++ {
			entries[i] = a.entry(i-lo, ips[i])
		}
	})
	if err != nil {
		return nil, err
	}
	return entries, nil
}

// lookupChunks posts n addresses to /v2/lookup in chunks of at most
// maxBatch, fanned out over the worker pool. body builds chunk [lo, hi)'s
// request. done sees every chunk once, with its answer or the error that
// stopped it (ctx's, for a chunk never sent), on the worker that ran it;
// the worker reuses the answer after done returns. It returns the first
// error.
func (c *Client) lookupChunks(ctx context.Context, n int,
	body func(lo, hi int) []byte,
	done func(lo, hi int, a *lookupAnswer, err error)) error {
	size := c.batchSize()
	chunks := (n + size - 1) / size
	var firstErr error
	var errMu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(c.workers(), chunks); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := lookupAnswerPool.Get().(*lookupAnswer)
			defer lookupAnswerPool.Put(a)
			for {
				k := int(next.Add(1)) - 1
				if k >= chunks {
					return
				}
				lo := k * size
				hi := min(lo+size, n)
				err := ctx.Err()
				if err == nil {
					err = c.lookupChunk(ctx, a, body, lo, hi)
				}
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
				}
				done(lo, hi, a, err)
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// lookupChunk sends chunk [lo, hi) and decodes its answer into a.
func (c *Client) lookupChunk(ctx context.Context, a *lookupAnswer, body func(lo, hi int) []byte, lo, hi int) error {
	if err := c.do(ctx, "/v2/lookup", body(lo, hi), a); err != nil {
		return err
	}
	if a.n != hi-lo {
		return fmt.Errorf("httpapi: batch answer has %d entries, want %d", a.n, hi-lo)
	}
	return nil
}

// Name implements geodb.Provider.
func (c *Client) Name() string { return c.DB }

// TryLookup resolves one address in the pinned database, distinguishing
// a transport failure (err != nil) from a genuine database miss
// (ok == false, err == nil) — the distinction Lookup's Provider
// signature cannot express. It is a one-address batch lookup. ctx
// bounds the attempt and its retries.
func (c *Client) TryLookup(ctx context.Context, a ipx.Addr) (geodb.Record, bool, error) {
	if c.DB == "" {
		return geodb.Record{}, false, errors.New("httpapi: no database pinned (set Client.DB or WithDatabase)")
	}
	var rj RecordJSON
	var errText string
	err := c.lookupChunks(ctx, 1, func(int, int) []byte {
		return appendLookupRequest(nil, []ipx.Addr{a}, c.DB)
	}, func(_, _ int, ans *lookupAnswer, err error) {
		if err == nil {
			rj, errText = ans.result(0, c.DB)
		}
	})
	if err != nil {
		return geodb.Record{}, false, err
	}
	if errText != "" {
		return geodb.Record{}, false, fmt.Errorf("httpapi: lookup %s: %s", a, errText)
	}
	rec, found := toRecord(rj)
	return rec, found, nil
}

// Lookup implements geodb.Provider over the wire, so the core
// evaluation can score a *remote* database exactly like a local one.
// Transport errors surface as misses to honor the Provider contract,
// but unlike the original client they are not silent: they tally in
// TransportErrors and persist in Err, so an evaluation can detect
// outage-tainted coverage numbers. Use TryLookup when the caller can
// handle errors directly, and WithBaseContext to make these calls
// cancellable.
func (c *Client) Lookup(a ipx.Addr) (geodb.Record, bool) {
	rec, ok, err := c.TryLookup(c.rootCtx(), a)
	if err != nil {
		return geodb.Record{}, false
	}
	return rec, ok
}

// compile-time interface check
var _ geodb.Provider = (*Client)(nil)
