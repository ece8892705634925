package httpapi

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"routergeo/internal/ipx"
)

// flakyTransport fails the first failures round trips (either with a
// transport error or, when status is set, an HTTP error answer), then
// delegates to the real transport.
type flakyTransport struct {
	failures int32
	status   int // 0 = transport error, else this HTTP status
	calls    atomic.Int32
	next     http.RoundTripper
}

func (f *flakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	n := f.calls.Add(1)
	if int(n) <= int(atomic.LoadInt32(&f.failures)) {
		if f.status != 0 {
			rec := httptest.NewRecorder()
			rec.WriteHeader(f.status)
			return rec.Result(), nil
		}
		return nil, errors.New("flaky: injected transport failure")
	}
	next := f.next
	if next == nil {
		next = http.DefaultTransport
	}
	return next.RoundTrip(req)
}

func TestClientRetriesTransportErrors(t *testing.T) {
	srv := testServer(t)
	ft := &flakyTransport{failures: 2}
	var slept []time.Duration
	c := NewClient(srv.URL,
		WithDatabase("alpha"),
		WithRetries(3),
		WithBackoff(10*time.Millisecond),
		WithHTTPClient(&http.Client{Transport: ft}))
	c.sleep = func(d time.Duration) { slept = append(slept, d) }
	// Pin jitter to its maximum so the exponential schedule is exact.
	c.jitter = func(n time.Duration) time.Duration { return n }

	rec, ok, err := c.TryLookup(context.Background(), ipx.MustParseAddr("10.0.0.1"))
	if err != nil || !ok {
		t.Fatalf("TryLookup after retries = (%v, %v, %v)", rec, ok, err)
	}
	if rec.City != "Dallas" {
		t.Errorf("rec = %+v", rec)
	}
	if got := ft.calls.Load(); got != 3 {
		t.Errorf("round trips = %d, want 3 (2 failures + 1 success)", got)
	}
	// Exponential backoff: base, then base<<1.
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if len(slept) != len(want) || slept[0] != want[0] || slept[1] != want[1] {
		t.Errorf("backoff sleeps = %v, want %v", slept, want)
	}
	if c.TransportErrors() != 0 {
		t.Errorf("TransportErrors = %d after a recovered request", c.TransportErrors())
	}
}

func TestClientRetries5xx(t *testing.T) {
	srv := testServer(t)
	ft := &flakyTransport{failures: 1, status: http.StatusServiceUnavailable}
	c := NewClient(srv.URL,
		WithDatabase("alpha"),
		WithRetries(2),
		WithBackoff(0),
		WithHTTPClient(&http.Client{Transport: ft}))
	if _, ok, err := c.TryLookup(context.Background(), ipx.MustParseAddr("10.0.0.1")); err != nil || !ok {
		t.Fatalf("TryLookup = (_, %v, %v), want recovery from 503", ok, err)
	}
	if got := ft.calls.Load(); got != 2 {
		t.Errorf("round trips = %d, want 2", got)
	}
}

func TestClientDoesNotRetry4xx(t *testing.T) {
	srv := testServer(t)
	ft := &flakyTransport{failures: 99, status: http.StatusNotFound}
	c := NewClient(srv.URL,
		WithDatabase("alpha"),
		WithRetries(3),
		WithBackoff(0),
		WithHTTPClient(&http.Client{Transport: ft}))
	if _, _, err := c.TryLookup(context.Background(), ipx.MustParseAddr("10.0.0.1")); err == nil {
		t.Fatal("TryLookup should fail on 404")
	}
	if got := ft.calls.Load(); got != 1 {
		t.Errorf("round trips = %d, want 1 (client errors are final)", got)
	}
}

func TestClientDistinguishesOutageFromMiss(t *testing.T) {
	// The original client's defect: a dead server looked identical to an
	// address with no coverage. TryLookup separates the two, and the
	// Provider-shaped Lookup records the outage on the client.
	dead := NewClient("http://127.0.0.1:1", WithDatabase("alpha"), WithRetries(0))
	if _, ok, err := dead.TryLookup(context.Background(), ipx.MustParseAddr("10.0.0.1")); err == nil || ok {
		t.Fatalf("TryLookup against dead server = (_, %v, %v), want transport error", ok, err)
	}

	if _, ok := dead.Lookup(ipx.MustParseAddr("10.0.0.1")); ok {
		t.Fatal("Provider Lookup must still miss, not panic")
	}
	if dead.Err() == nil {
		t.Error("Err() = nil after an outage; remote evaluations cannot detect tainted coverage")
	}
	if dead.TransportErrors() < 2 {
		t.Errorf("TransportErrors = %d, want >= 2", dead.TransportErrors())
	}

	// A genuine miss leaves the error surface untouched.
	srv := testServer(t)
	healthy := NewClient(srv.URL, WithDatabase("alpha"))
	if _, ok, err := healthy.TryLookup(context.Background(), ipx.MustParseAddr("192.0.2.1")); err != nil || ok {
		t.Fatalf("miss = (_, %v, %v), want (false, nil)", ok, err)
	}
	if healthy.Err() != nil || healthy.TransportErrors() != 0 {
		t.Error("a genuine miss must not count as a transport error")
	}
}

func TestBatchLookupChunksAndPreservesOrder(t *testing.T) {
	srv := testServer(t)
	for _, tc := range []struct {
		name            string
		n, bad, workers int
	}{
		{"workers=1", 100, 41, 1},
		{"workers=3", 100, 41, 3},
		{"one-chunk", 7, 3, 3}, // one chunk runs on the caller's goroutine
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewClient(srv.URL, WithClientMaxBatch(7), WithConcurrency(tc.workers))
			ips := make([]string, tc.n)
			for i := range ips {
				ips[i] = fmt.Sprintf("10.0.%d.%d", i/200, i%200)
			}
			ips[tc.bad] = "not-an-ip" // malformed entries must stay per-entry across chunks
			entries, err := c.BatchLookup(context.Background(), ips)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != tc.n {
				t.Fatalf("entries = %d, want %d", len(entries), tc.n)
			}
			for i, e := range entries {
				if i == tc.bad {
					if e.Error == "" {
						t.Errorf("entry %d should carry a parse error, got %+v", i, e)
					}
					continue
				}
				if e.IP != ips[i] || e.Error != "" {
					t.Fatalf("entry %d = %+v, want ip %q (order lost?)", i, e, ips[i])
				}
				if !e.Results["alpha"].Found {
					t.Fatalf("entry %d unresolved", i)
				}
			}
		})
	}
}

func TestBatchLookupRetriesFlakyTransport(t *testing.T) {
	srv := testServer(t)
	ft := &flakyTransport{failures: 3}
	c := NewClient(srv.URL,
		WithRetries(4),
		WithBackoff(0),
		WithClientMaxBatch(10),
		WithConcurrency(2),
		WithHTTPClient(&http.Client{Transport: ft}))
	ips := make([]string, 30)
	for i := range ips {
		ips[i] = fmt.Sprintf("10.0.0.%d", i+1)
	}
	entries, err := c.BatchLookup(context.Background(), ips)
	if err != nil {
		t.Fatalf("BatchLookup with retries = %v", err)
	}
	for i, e := range entries {
		if e.IP != ips[i] {
			t.Fatalf("entry %d = %q, want %q", i, e.IP, ips[i])
		}
	}
}

func TestBatchLookupSurfacesExhaustedRetries(t *testing.T) {
	c := NewClient("http://127.0.0.1:1", WithRetries(1), WithBackoff(0))
	if _, err := c.BatchLookup(context.Background(), []string{"10.0.0.1"}); err == nil {
		t.Fatal("BatchLookup against a dead server must error, not fabricate misses")
	}
	if c.Err() == nil || c.TransportErrors() == 0 {
		t.Error("exhausted retries must register on the error surface")
	}
}

// TestBatchLookupConcurrentUse drives one shared client from many
// goroutines; run under -race this guards the counters, the chunk
// scatter and the error recording.
func TestBatchLookupConcurrentUse(t *testing.T) {
	srv := testServer(t)
	c := NewClient(srv.URL, WithClientMaxBatch(5), WithConcurrency(4), WithDatabase("alpha"))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ips := make([]string, 40)
			for i := range ips {
				ips[i] = fmt.Sprintf("10.0.%d.%d", g, i+1)
			}
			entries, err := c.BatchLookup(context.Background(), ips)
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
				return
			}
			for i, e := range entries {
				if e.IP != ips[i] || !e.Results["alpha"].Found {
					t.Errorf("goroutine %d entry %d = %+v", g, i, e)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Err() != nil {
		t.Errorf("Err = %v", c.Err())
	}
}

func TestBatchLookupEmpty(t *testing.T) {
	c := NewClient("http://127.0.0.1:1") // never dialed
	entries, err := c.BatchLookup(context.Background(), nil)
	if err != nil || entries != nil {
		t.Fatalf("empty batch = (%v, %v)", entries, err)
	}
}

func TestClientLogsRetries(t *testing.T) {
	srv := testServer(t)
	ft := &flakyTransport{failures: 2}
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	c := NewClient(srv.URL,
		WithDatabase("alpha"),
		WithRetries(3),
		WithBackoff(0),
		WithHTTPClient(&http.Client{Transport: ft}),
		WithClientLogger(logger))
	if _, ok, err := c.TryLookup(context.Background(), ipx.MustParseAddr("10.0.0.1")); err != nil || !ok {
		t.Fatalf("TryLookup = (_, %v, %v), want recovery", ok, err)
	}
	out := buf.String()
	if got := strings.Count(out, "retrying request"); got != 2 {
		t.Errorf("got %d retry warnings, want 2: %q", got, out)
	}
	if !strings.Contains(out, "level=WARN") {
		t.Errorf("retry lines not warn-level: %q", out)
	}
	if !strings.Contains(out, "attempt=2") || !strings.Contains(out, "max_attempts=4") {
		t.Errorf("retry lines missing attempt counts: %q", out)
	}
	if strings.Contains(out, "request failed after all retries") {
		t.Errorf("recovered request logged a give-up summary: %q", out)
	}
}

func TestClientLogsGiveUp(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	dead := NewClient("http://127.0.0.1:1",
		WithDatabase("alpha"),
		WithRetries(1),
		WithBackoff(0),
		WithClientLogger(logger))
	if _, _, err := dead.TryLookup(context.Background(), ipx.MustParseAddr("10.0.0.1")); err == nil {
		t.Fatal("TryLookup against a dead server should fail")
	}
	out := buf.String()
	if !strings.Contains(out, "request failed after all retries") {
		t.Errorf("missing give-up summary: %q", out)
	}
	if !strings.Contains(out, "level=ERROR") {
		t.Errorf("give-up summary not error-level: %q", out)
	}
	if !strings.Contains(out, "attempts=2") {
		t.Errorf("give-up summary missing attempt count: %q", out)
	}
}

// TestBackoffDelayCapsInsteadOfOverflowing is the regression test for
// the old `backoff << (attempt-1)` bug: past ~40 doublings the shift
// overflowed time.Duration into a negative delay that was never slept,
// turning the tail of a long retry budget into a hot loop.
func TestBackoffDelayCapsInsteadOfOverflowing(t *testing.T) {
	c := NewClient("http://x",
		WithBackoff(100*time.Millisecond),
		WithMaxBackoff(5*time.Second))
	c.jitter = func(n time.Duration) time.Duration { return n } // pin to max
	for _, attempt := range []int{1, 2, 3, 7, 40, 63, 64, 200, 1 << 20} {
		d := c.backoffDelay(attempt)
		if d <= 0 {
			t.Fatalf("backoffDelay(%d) = %v; overflowed", attempt, d)
		}
		if d > 5*time.Second {
			t.Fatalf("backoffDelay(%d) = %v, want <= cap", attempt, d)
		}
	}
	if got := c.backoffDelay(1); got != 100*time.Millisecond {
		t.Errorf("backoffDelay(1) = %v, want base", got)
	}
	if got := c.backoffDelay(3); got != 400*time.Millisecond {
		t.Errorf("backoffDelay(3) = %v, want base<<2", got)
	}
	if got := c.backoffDelay(63); got != 5*time.Second {
		t.Errorf("backoffDelay(63) = %v, want the cap", got)
	}
}

func TestBackoffJitterStaysInEqualJitterWindow(t *testing.T) {
	c := NewClient("http://x", WithBackoff(64*time.Millisecond))
	for i := 0; i < 200; i++ { // default (random) jitter: delay in [d/2, d]
		d := c.backoffDelay(2) // nominal 128ms
		if d < 64*time.Millisecond || d > 128*time.Millisecond {
			t.Fatalf("jittered delay = %v, want within [64ms, 128ms]", d)
		}
	}
}

// throttleTransport answers 429 with a Retry-After hint a few times,
// then delegates.
type throttleTransport struct {
	remaining  atomic.Int32
	retryAfter string
	next       http.RoundTripper
}

func (tt *throttleTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if tt.remaining.Add(-1) >= 0 {
		rec := httptest.NewRecorder()
		if tt.retryAfter != "" {
			rec.Header().Set("Retry-After", tt.retryAfter)
		}
		rec.WriteHeader(http.StatusTooManyRequests)
		return rec.Result(), nil
	}
	next := tt.next
	if next == nil {
		next = http.DefaultTransport
	}
	return next.RoundTrip(req)
}

// TestClientRetries429HonoringRetryAfter is the regression test for
// retryable() treating throttles as final: a 429 must be retried, and
// the server's Retry-After hint must override the exponential schedule.
func TestClientRetries429HonoringRetryAfter(t *testing.T) {
	srv := testServer(t)
	tt := &throttleTransport{retryAfter: "3"}
	tt.remaining.Store(2)
	var slept []time.Duration
	c := NewClient(srv.URL,
		WithDatabase("alpha"),
		WithRetries(3),
		WithBackoff(10*time.Millisecond),
		WithHTTPClient(&http.Client{Transport: tt}))
	c.sleep = func(d time.Duration) { slept = append(slept, d) }

	if _, ok, err := c.TryLookup(context.Background(), ipx.MustParseAddr("10.0.0.1")); err != nil || !ok {
		t.Fatalf("TryLookup through throttling = (_, %v, %v), want recovery", ok, err)
	}
	want := []time.Duration{3 * time.Second, 3 * time.Second}
	if len(slept) != 2 || slept[0] != want[0] || slept[1] != want[1] {
		t.Errorf("sleeps = %v, want Retry-After hints %v", slept, want)
	}
}

func TestClientCapsRetryAfterAtMaxBackoff(t *testing.T) {
	srv := testServer(t)
	tt := &throttleTransport{retryAfter: "3600"} // an hour: do not obey literally
	tt.remaining.Store(1)
	var slept []time.Duration
	c := NewClient(srv.URL,
		WithDatabase("alpha"),
		WithRetries(2),
		WithBackoff(time.Millisecond),
		WithMaxBackoff(50*time.Millisecond),
		WithHTTPClient(&http.Client{Transport: tt}))
	c.sleep = func(d time.Duration) { slept = append(slept, d) }
	if _, ok, err := c.TryLookup(context.Background(), ipx.MustParseAddr("10.0.0.1")); err != nil || !ok {
		t.Fatalf("TryLookup = (_, %v, %v), want recovery", ok, err)
	}
	if len(slept) != 1 || slept[0] != 50*time.Millisecond {
		t.Errorf("sleeps = %v, want the 50ms cap", slept)
	}
}

func TestClient429WithoutRetryAfterUsesBackoff(t *testing.T) {
	srv := testServer(t)
	tt := &throttleTransport{} // no header
	tt.remaining.Store(1)
	var slept []time.Duration
	c := NewClient(srv.URL,
		WithDatabase("alpha"),
		WithRetries(2),
		WithBackoff(10*time.Millisecond),
		WithHTTPClient(&http.Client{Transport: tt}))
	c.sleep = func(d time.Duration) { slept = append(slept, d) }
	c.jitter = func(n time.Duration) time.Duration { return n }
	if _, ok, err := c.TryLookup(context.Background(), ipx.MustParseAddr("10.0.0.1")); err != nil || !ok {
		t.Fatalf("TryLookup = (_, %v, %v), want recovery", ok, err)
	}
	if len(slept) != 1 || slept[0] != 10*time.Millisecond {
		t.Errorf("sleeps = %v, want the exponential base", slept)
	}
}

func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"0", 0},
		{"2", 2 * time.Second},
		{"-1", 0},
		{"soon", 0},
		{"Mon, 02 Jan 2006 15:04:05 GMT", 0}, // HTTP-date form: treated as no hint
	}
	for _, tc := range cases {
		if got := parseRetryAfter(tc.in); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestClientHonorsCallerContext is the regression test for once()
// minting context.Background(): cancelling the caller's context must
// abort the retry loop (and its backoff sleeps) immediately.
func TestClientHonorsCallerContext(t *testing.T) {
	ft := &flakyTransport{failures: 1 << 30}
	c := NewClient("http://127.0.0.1:1",
		WithDatabase("alpha"),
		WithRetries(1000),
		WithBackoff(time.Hour), // a real sleep here would hang the test
		WithBreaker(0, 0),
		WithHTTPClient(&http.Client{Transport: ft}))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, _, err := c.TryLookup(ctx, ipx.MustParseAddr("10.0.0.1"))
	if err == nil {
		t.Fatal("TryLookup with a cancelled context must fail")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; the hour-long backoff was slept", elapsed)
	}
	if got := ft.calls.Load(); got > 1 {
		t.Errorf("round trips after cancellation = %d, want <= 1", got)
	}
}

func TestBatchLookupHonorsCallerContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := NewClient("http://127.0.0.1:1", WithRetries(1000), WithBackoff(time.Hour))
	start := time.Now()
	if _, err := c.BatchLookup(ctx, []string{"10.0.0.1"}); err == nil {
		t.Fatal("BatchLookup with a cancelled context must fail")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

func TestClientBaseContextThreadsIntoProviderLookups(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := NewClient("http://127.0.0.1:1",
		WithDatabase("alpha"),
		WithRetries(1000),
		WithBackoff(time.Hour),
		WithBaseContext(ctx))
	start := time.Now()
	if _, ok := c.Lookup(ipx.MustParseAddr("10.0.0.1")); ok {
		t.Fatal("Lookup with a cancelled base context must miss")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("base-context cancellation took %v", elapsed)
	}
}
