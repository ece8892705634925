package httpapi

import (
	"bytes"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"os"
	"strings"
	"testing"
	"time"
)

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

// TestRequestDeadlineEndsStalledUpload: a client that stalls mid-body
// loses its connection once the request deadline passes, and the
// request counts as an error and logs as a 408, not as a malformed
// body.
func TestRequestDeadlineEndsStalledUpload(t *testing.T) {
	var logs bytes.Buffer
	srv := httptest.NewServer(NewHandler(testDBs(t), WithRequestTimeout(150*time.Millisecond),
		WithLogger(slog.New(slog.NewTextHandler(&logs, nil)))))
	t.Cleanup(srv.Close)

	if d := stalledUploadEnds(t, srv.Listener.Addr().String(), 3*time.Second); d > time.Second {
		t.Errorf("stalled upload held its connection for %v, want at most 1s under a 150ms deadline", d)
	}
	s, err := NewClient(srv.URL).Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.ByEndpoint["POST /v2/lookup"] != 1 || s.Errors != 1 {
		t.Errorf("after one timed-out upload: /v2/lookup count %d, errors %d; want 1 and 1",
			s.ByEndpoint["POST /v2/lookup"], s.Errors)
	}
	srv.Close() // waits for the handlers, so every log line is written
	if !strings.Contains(logs.String(), "path=/v2/lookup status=408") {
		t.Errorf("timed-out upload not logged as 408 Request Timeout:\n%s", logs.String())
	}
}

// TestAnswerPastDeadlineCountsAsError: an answer whose write outlasts
// the deadline counts as an error although the handler wrote a 200,
// since its client sees the connection close.
func TestAnswerPastDeadlineCountsAsError(t *testing.T) {
	const timeout = 50 * time.Millisecond
	h := NewHandler(testDBs(t), WithRequestTimeout(timeout))
	w := &stalledWriter{
		nullResponseWriter: nullResponseWriter{h: make(http.Header)},
		entered:            make(chan struct{}),
		release:            make(chan struct{}),
	}
	req := httptest.NewRequest(http.MethodPost, "/v2/lookup", bytes.NewReader(batchBody(8)))
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(w, req)
	}()
	<-w.entered
	time.Sleep(2 * timeout) // the write outlasts the deadline
	close(w.release)
	<-done
	if s := h.metrics.snapshot(); w.status != http.StatusOK || s.Errors != 1 {
		t.Errorf("answer written past its deadline: status %d, errors %d; want 200 and 1", w.status, s.Errors)
	}
}

// TestDeadlineMiddlewareBoundsContext: a handler under the layer sees
// the deadline on its context, and a keep-alive connection serves its
// next request after the previous one's deadline has passed.
func TestDeadlineMiddlewareBoundsContext(t *testing.T) {
	const timeout = 150 * time.Millisecond
	left := make(chan time.Duration, 2) // one per request
	srv := httptest.NewServer(deadlineMiddleware(timeout, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d, ok := r.Context().Deadline()
		if !ok {
			t.Error("request context has no deadline")
		}
		left <- time.Until(d)
		_, _ = io.WriteString(w, "ok\n")
	})))
	t.Cleanup(srv.Close)

	get := func() (reused bool) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, srv.URL+"/x", nil)
		if err != nil {
			t.Fatal(err)
		}
		trace := &httptrace.ClientTrace{GotConn: func(ci httptrace.GotConnInfo) { reused = ci.Reused }}
		resp, err := srv.Client().Do(req.WithContext(httptrace.WithClientTrace(req.Context(), trace)))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
			t.Fatalf("GET = %d %q, %v", resp.StatusCode, body, err)
		}
		return reused
	}
	get()
	if got := <-left; got <= 0 || got > timeout {
		t.Errorf("handler saw %v left before its deadline, want (0, %v]", got, timeout)
	}
	time.Sleep(2 * timeout) // past the first request's connection deadlines
	if !get() {
		t.Error("second request did not reuse the keep-alive connection")
	}
}
