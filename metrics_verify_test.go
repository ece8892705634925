package routergeo

// Acceptance suite for the standards-facing observability surface, run
// by `make metrics-verify`. One half boots the real geoserve binary
// against a CSV fixture, scrapes GET /metrics, and holds the output to
// the in-repo exposition linter (the same strictness promtool applies);
// the other half watches GET /v2/events over SSE while a remote sweep,
// a mid-sweep hot reload, and a circuit-breaker trip happen — the live
// dashboard story, end to end.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"routergeo/internal/core"
	"routergeo/internal/geodb/httpapi"
	"routergeo/internal/geodb/snapshot"
	"routergeo/internal/ipx"
	"routergeo/internal/obs"
	"routergeo/internal/obs/promlint"
)

// verifyFixtureCSV is the database geoserve serves during the scrape
// test: one city-level block and one country-level block, enough to
// produce hits, misses, and latency observations.
const verifyFixtureCSV = `lo,hi,country,city,lat,lon,resolution,block_bits
10.0.0.0,10.0.0.255,US,Dallas,32.7767,-96.7970,city,24
10.0.1.0,10.0.1.255,DE,,,,country,24
`

// TestMetricsVerifyExposition builds the real geoserve binary, serves
// the fixture on an ephemeral port, and validates the Prometheus scrape
// with the in-repo parser — covering registry metrics, the ambient
// process/runtime collectors, content negotiation, the SSE endpoint's
// liveness, the -timeout deadline against a stalled upload, and a clean
// SIGTERM exit.
func TestMetricsVerifyExposition(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the real geoserve binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "geoserve")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/geoserve").CombinedOutput(); err != nil {
		t.Fatalf("building geoserve: %v\n%s", err, out)
	}
	csvPath := filepath.Join(dir, "verifydb.csv")
	if err := os.WriteFile(csvPath, []byte(verifyFixtureCSV), 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-db", csvPath,
		"-quiet", "-grace", "1ms", "-drain", "5s", "-timeout", "300ms")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := false
	t.Cleanup(func() {
		if !exited {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})

	// The kernel picks the port; the "listening on" line is how callers
	// learn it. Keep draining stderr afterwards so the process never
	// blocks on the pipe and the shutdown banner is captured. cmd.Wait
	// closes the pipe once the process exits, so it must not run before
	// the scanner has read to EOF (stderrDone), or the last lines — the
	// banner among them — can be lost.
	var stderrBuf bytes.Buffer
	var stderrMu sync.Mutex
	addrCh := make(chan string, 1)
	stderrDone := make(chan struct{})
	go func() {
		defer close(stderrDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			stderrMu.Lock()
			stderrBuf.WriteString(line + "\n")
			stderrMu.Unlock()
			if rest, ok := strings.CutPrefix(line, "listening on "); ok {
				select {
				case addrCh <- strings.TrimSpace(rest):
				default:
				}
			}
		}
	}()
	var baseURL string
	select {
	case baseURL = <-addrCh:
	case <-time.After(30 * time.Second):
		t.Fatal("geoserve never printed its listening address")
	}

	// Traffic first, so the scrape has request counters and latency
	// observations to expose: two hits, one miss.
	for _, ip := range []string{"10.0.0.5", "10.0.1.7", "192.0.2.1"} {
		resp, err := http.Get(baseURL + "/v1/lookup?ip=" + ip)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d\n%s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Errorf("Content-Type = %q, want %q", ct, obs.PromContentType)
	}
	fams, err := promlint.LintExposition(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("exposition failed lint: %v\n%s", err, body)
	}
	for _, name := range []string{
		"routergeo_http_requests_total",
		"routergeo_http_latency_ms",
		"routergeo_db_verifydb_hits_total",
		"routergeo_db_verifydb_misses_total",
		"routergeo_build_info",
		"process_cpu_seconds_total",
		"go_goroutines",
		"go_gc_pauses_seconds",
	} {
		if fams[name] == nil {
			t.Errorf("scrape missing metric family %s", name)
		}
	}
	if f := fams["routergeo_http_latency_ms"]; f != nil && f.Type != "histogram" {
		t.Errorf("routergeo_http_latency_ms type = %q, want histogram", f.Type)
	}
	// /metrics lives outside the metrics middleware, so the scrape does
	// not count itself: exactly the three lookups above.
	if !strings.Contains(string(body), "routergeo_http_requests_total 3\n") {
		t.Errorf("scrape should report exactly 3 requests:\n%s", grepLines(string(body), "http_requests"))
	}

	// Content negotiation: a JSON-only Accept header selects the raw
	// registry snapshot on the same path.
	req, _ := http.NewRequest("GET", baseURL+"/metrics", nil)
	req.Header.Set("Accept", "application/json")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	jbody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("JSON negotiation Content-Type = %q", ct)
	}
	if !bytes.Contains(jbody, []byte(`"counters"`)) {
		t.Errorf("JSON snapshot missing counters section:\n%s", jbody)
	}

	// The event stream answers on the main listener and starts framing
	// immediately (the retry hint is the first line out).
	sresp, err := http.Get(baseURL + "/v2/events")
	if err != nil {
		t.Fatal(err)
	}
	if ct := sresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Errorf("/v2/events Content-Type = %q", ct)
	}
	line, err := bufio.NewReader(sresp.Body).ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "retry:") {
		t.Errorf("first SSE line = %q, %v; want retry hint", line, err)
	}
	sresp.Body.Close()

	// -timeout reaches the API routes: an upload that stalls mid-body
	// loses its connection soon after its 300ms deadline, and counts as
	// an error.
	if d := stalledUploadEnds(t, strings.TrimPrefix(baseURL, "http://"), 5*time.Second); d > 2*time.Second {
		t.Errorf("stalled upload held its connection for %v under -timeout 300ms, want at most 2s", d)
	}
	if resp, err = http.Get(baseURL + "/metrics"); err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "routergeo_http_errors_total 1\n") {
		t.Errorf("scrape after the stalled upload should report 1 error:\n%s", grepLines(string(body), "http_errors"))
	}

	// SIGTERM drains and exits cleanly.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		<-stderrDone
		done <- cmd.Wait()
	}()
	select {
	case err := <-done:
		exited = true
		if err != nil {
			stderrMu.Lock()
			defer stderrMu.Unlock()
			t.Fatalf("geoserve exit after SIGTERM: %v\n%s", err, stderrBuf.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("geoserve did not exit within 15s of SIGTERM")
	}
	stderrMu.Lock()
	defer stderrMu.Unlock()
	if !strings.Contains(stderrBuf.String(), "shutdown complete") {
		t.Errorf("shutdown banner missing from stderr:\n%s", stderrBuf.String())
	}
}

// stalledUploadEnds sends addr a POST /v2/lookup that declares a
// 1,000-byte body, sends 8 bytes of it and stalls, then reads until the
// server ends the connection. It returns how long that took, failing
// the test when nothing ended it within wait.
func stalledUploadEnds(t *testing.T, addr string, wait time.Duration) time.Duration {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "POST /v2/lookup HTTP/1.1\r\nHost: geoserve\r\n"+
		"Content-Type: application/json\r\nContent-Length: 1000\r\n\r\n"+`{"ips":[`); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(start.Add(wait))
	_, err = io.Copy(io.Discard, conn)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("stalled upload: the server neither answered nor closed the connection within %v", wait)
	}
	return time.Since(start)
}

// grepLines returns the lines of s containing substr, for error output.
func grepLines(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestMetricsVerifyEventStream holds /v2/events to the acceptance bar:
// a remote sweep with a mid-sweep snapshot hot reload and a client
// circuit-breaker trip must all be visible live on one SSE stream —
// progress and span boundaries, the generation swap, and the breaker
// transition.
func TestMetricsVerifyEventStream(t *testing.T) {
	s := testStudy(t)
	dir := t.TempDir()
	db := s.env.DBs[0]
	publish := func(epoch int64) {
		path := filepath.Join(dir, strings.ToLower(db.Name())+snapshot.Ext)
		meta := snapshot.Meta{BuildEpoch: epoch, SourceFormat: "study"}
		if err := snapshot.WriteFile(path, db, meta); err != nil {
			t.Fatal(err)
		}
	}
	publish(1)

	// The handler rides the process-default event bus, so breaker
	// transitions (published by clients onto that bus) and sweep
	// progress/span events share the stream with the server's own
	// swap/reload events — one stream shows the whole story.
	h := httpapi.NewHandler(nil)
	rel := httpapi.NewReloader(h, dir, time.Hour, nil)
	if _, err := rel.Rescan(true); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close) // registered before the stream's body close: LIFO closes the stream first

	sresp, err := http.Get(srv.URL + "/v2/events")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sresp.Body.Close() })
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v2/events = %d", sresp.StatusCode)
	}
	// The retry hint is written after the handler subscribes to the bus,
	// so once it arrives the stream is guaranteed to see every event the
	// sweep below publishes.
	br := bufio.NewReader(sresp.Body)
	if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, "retry:") {
		t.Fatalf("first SSE line = %q, %v; want retry hint", line, err)
	}
	var mu sync.Mutex
	kinds := map[string]int{}
	go func() {
		sc := bufio.NewScanner(br)
		for sc.Scan() {
			if kind, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
				mu.Lock()
				kinds[kind]++
				mu.Unlock()
			}
		}
	}()

	// A remote accuracy sweep (span events), with the snapshot
	// republished under a new epoch and swapped in mid-run.
	client := httpapi.NewClient(srv.URL, httpapi.WithDatabase(db.Name()))
	remote, err := httpapi.NewRemoteProvider(client)
	if err != nil {
		t.Fatal(err)
	}
	half := len(s.env.Targets) / 2
	core.MeasureAccuracy(context.Background(), remote, s.env.Targets[:half])
	publish(2)
	if swapped, err := rel.Rescan(false); err != nil || !swapped {
		t.Fatalf("mid-sweep rescan: swapped=%v err=%v", swapped, err)
	}
	core.MeasureAccuracy(context.Background(), remote, s.env.Targets[half:])

	// A local coverage pass emits progress events (the bus has a
	// subscriber, so even a short loop publishes its ticks).
	addrs := make([]ipx.Addr, 0, 64)
	for _, tgt := range s.env.Targets {
		addrs = append(addrs, tgt.Addr)
		if len(addrs) == cap(addrs) {
			break
		}
	}
	core.MeasureCoverage(context.Background(), db, addrs)

	// Trip a circuit breaker: one failed attempt against a dead server
	// with threshold 1 flips closed→open, published on the default bus.
	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	dead.Close() // keep the URL, kill the listener: connections now refuse
	broken := httpapi.NewClient(dead.URL,
		httpapi.WithDatabase(db.Name()),
		httpapi.WithRetries(0),
		httpapi.WithBreaker(1, time.Hour),
		httpapi.WithClientLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))) // the refused dial is the point
	broken.Lookup(ipx.MustParseAddr("10.0.0.1"))

	waitForEvents(t, &mu, kinds,
		"span.start", "span.end",
		"progress.start", "progress.done",
		"generation.swap", "breaker")
}

// waitForEvents polls until every kind has been seen on the stream.
func waitForEvents(t *testing.T, mu *sync.Mutex, kinds map[string]int, want ...string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		var missing []string
		for _, k := range want {
			if kinds[k] == 0 {
				missing = append(missing, k)
			}
		}
		seen := fmt.Sprintf("%v", kinds)
		mu.Unlock()
		if len(missing) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("event stream never showed %v (saw %s)", missing, seen)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
