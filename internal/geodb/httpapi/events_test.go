package httpapi

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"routergeo/internal/obs"
	"routergeo/internal/obs/promlint"
)

// sseClient opens GET /v2/events against srv and returns a line scanner
// over the stream plus the response for cleanup.
func sseClient(t *testing.T, srv *httptest.Server) (*bufio.Scanner, *http.Response) {
	t.Helper()
	req, err := http.NewRequest("GET", srv.URL+"/v2/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v2/events status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("Content-Type = %q", ct)
	}
	return bufio.NewScanner(resp.Body), resp
}

// awaitEvent reads the stream until an event of the wanted kind arrives
// (or the stream ends) and returns its decoded payload.
func awaitEvent(t *testing.T, sc *bufio.Scanner, kind string) obs.Event {
	t.Helper()
	want := "event: " + kind
	matched := false
	for sc.Scan() {
		line := sc.Text()
		if line == want {
			matched = true
			continue
		}
		if matched && strings.HasPrefix(line, "data: ") {
			var ev obs.Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("decoding %q: %v", line, err)
			}
			return ev
		}
	}
	t.Fatalf("stream ended before a %q event arrived (scan err: %v)", kind, sc.Err())
	return obs.Event{}
}

// TestServerEventStream: a hot-reload swap shows up live on an open
// /v2/events connection, and entering the draining state closes the
// stream.
func TestServerEventStream(t *testing.T) {
	bus := obs.NewEventBus(64)
	h := NewHandler(testDBs(t), WithEventBus(bus), WithEventHeartbeat(20*time.Millisecond))
	srv := httptest.NewServer(h)
	// Registered before sseClient's body-close cleanup: cleanups run LIFO,
	// so the stream's client side closes before Close waits on the server.
	t.Cleanup(srv.Close)

	sc, _ := sseClient(t, srv)

	// Give the subscription a moment to register, then swap.
	waitFor(t, time.Second, func() bool { return bus.Active() })
	oldGen := h.Generation()
	h.Swap(testDBs(t))

	ev := awaitEvent(t, sc, "generation.swap")
	if ev.Data["from"] != oldGen || ev.Data["to"] != h.Generation() {
		t.Errorf("swap event data = %v, want from=%s to=%s", ev.Data, oldGen, h.Generation())
	}
	if ev.Seq == 0 || ev.Time.IsZero() {
		t.Errorf("swap event missing seq/time: %+v", ev)
	}

	// Draining must end the stream promptly.
	h.SetDraining(true)
	deadline := time.After(5 * time.Second)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for sc.Scan() {
		}
	}()
	select {
	case <-done:
	case <-deadline:
		t.Fatal("stream still open after SetDraining(true)")
	}
	// SetDraining(false) must not panic on the already-closed stop channel.
	h.SetDraining(false)
	h.SetDraining(true)
}

// TestServerEventReplay: Last-Event-ID resumes from the ring.
func TestServerEventReplay(t *testing.T) {
	bus := obs.NewEventBus(64)
	h := NewHandler(testDBs(t), WithEventBus(bus))
	srv := httptest.NewServer(h)
	defer srv.Close()

	h.Swap(testDBs(t))
	firstSeq := bus.LastSeq()
	h.Swap(testDBs(t))
	lastSeq := bus.LastSeq()

	// Resume after the first swap: only the second one replays.
	req, err := http.NewRequest("GET", srv.URL+"/v2/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", strconv.FormatUint(firstSeq, 10))
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	ev := awaitEvent(t, sc, "generation.swap")
	if ev.Seq != lastSeq {
		t.Errorf("replay started at seq %d, want %d", ev.Seq, lastSeq)
	}
}

// TestServerEventStreamOutlivesRequestTimeout: /v2/events sits outside
// the request deadline (WithRequestTimeout) — a stream must survive
// past it and still deliver.
func TestServerEventStreamOutlivesRequestTimeout(t *testing.T) {
	bus := obs.NewEventBus(64)
	h := NewHandler(testDBs(t),
		WithEventBus(bus),
		WithRequestTimeout(30*time.Millisecond),
		WithEventHeartbeat(10*time.Millisecond))
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)

	sc, _ := sseClient(t, srv)
	waitFor(t, time.Second, func() bool { return bus.Active() })
	time.Sleep(100 * time.Millisecond) // well past the request timeout
	h.Swap(testDBs(t))
	ev := awaitEvent(t, sc, "generation.swap")
	if ev.Kind != "generation.swap" {
		t.Errorf("event kind = %q", ev.Kind)
	}
}

// TestStalledStreamNeverBlocksServer: a subscriber that never reads must
// not stall Swap (the bus drops, the server moves on).
func TestStalledStreamNeverBlocksServer(t *testing.T) {
	bus := obs.NewEventBus(16)
	h := NewHandler(testDBs(t), WithEventBus(bus))
	srv := httptest.NewServer(h)
	defer srv.Close()

	// Open a stream and never read from it.
	req, err := http.NewRequest("GET", srv.URL+"/v2/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	waitFor(t, time.Second, func() bool { return bus.Active() })

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			bus.Publish("flood", "i", i)
		}
		h.Swap(testDBs(t))
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("publishing against a stalled stream blocked the server")
	}
}

// TestMetricsEndpoint: GET /metrics serves a lint-clean Prometheus
// exposition carrying the server's instruments and the ambient
// collectors, without counting itself into the request metrics; an
// Accept: application/json request gets the JSON snapshot instead.
func TestMetricsEndpoint(t *testing.T) {
	h := NewHandler(testDBs(t), WithEventBus(obs.NewEventBus(16)))
	srv := httptest.NewServer(h)
	defer srv.Close()

	// Generate some traffic first so the instruments are warm.
	for i := 0; i < 3; i++ {
		resp, err := http.Get(srv.URL + "/v1/lookup?ip=10.0.1.2")
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Errorf("Content-Type = %q, want %q", ct, obs.PromContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := promlint.LintExposition(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("/metrics fails exposition lint: %v\n%s", err, body)
	}
	for _, name := range []string{
		"routergeo_http_requests_total",
		"routergeo_http_latency_ms",
		"routergeo_db_alpha_hits_total",
		"routergeo_generation_swaps_total",
		"routergeo_build_info",
		"process_cpu_seconds_total",
		"go_goroutines",
	} {
		if fams[name] == nil {
			t.Errorf("/metrics missing family %s", name)
		}
	}
	if f := fams["routergeo_http_latency_ms"]; f != nil && f.Type != "histogram" {
		t.Errorf("latency family type = %s, want histogram", f.Type)
	}
	if !strings.Contains(string(body), "routergeo_http_requests_total 3\n") {
		t.Errorf("scrape should not count itself; exposition:\n%s", body)
	}

	req, err := http.NewRequest("GET", srv.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/json")
	jresp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(jresp.Body).Decode(&snap); err != nil {
		t.Fatalf("JSON negotiation: %v", err)
	}
	if snap.Counters["http.requests"] != 3 {
		t.Errorf("JSON snapshot http.requests = %d, want 3", snap.Counters["http.requests"])
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
