package faults

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// drain reads and closes a response body.
func drain(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return b
}

// backend is a plain JSON handler big enough for truncation and
// slow-loris to bite.
func backend(t *testing.T) http.Handler {
	t.Helper()
	payload := map[string]string{"pad": strings.Repeat("x", 4096), "ok": "yes"}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(payload); err != nil {
			t.Errorf("encode: %v", err)
		}
	})
}

// TestScheduleDeterministic is the property the chaos suite depends on:
// the same seed always yields the same fault schedule, and a different
// seed yields a different one.
func TestScheduleDeterministic(t *testing.T) {
	for _, p := range Builtin() {
		t.Run(p.Name, func(t *testing.T) {
			const n = 500
			a, b := New(p), New(p)
			var faults int
			for i := 0; i < n; i++ {
				da, db := a.Next(), b.Next()
				if da != db {
					t.Fatalf("decision %d diverged under one seed: %+v vs %+v", i, da, db)
				}
				if da.Kind != "" {
					faults++
				}
			}
			if faults == 0 {
				t.Fatalf("policy %s injected nothing over %d requests", p.Name, n)
			}
			if faults == n && p.Rules[0].Rate < 1 {
				t.Fatalf("policy %s faulted every request at rate %v", p.Name, p.Rules[0].Rate)
			}

			reseeded := p
			reseeded.Seed = p.Seed + 1
			c := New(reseeded)
			diverged := false
			d := New(p)
			for i := 0; i < n; i++ {
				if c.Next() != d.Next() {
					diverged = true
					break
				}
			}
			if !diverged {
				t.Errorf("policy %s: seeds %d and %d produced identical schedules", p.Name, p.Seed, reseeded.Seed)
			}
		})
	}
}

func TestBurstExtendsTriggers(t *testing.T) {
	p := Policy{Name: "bursty", Seed: 3, Rules: []Rule{
		{Kind: KindError, Rate: 0.2, Burst: 3, Status: 503},
	}}
	in := New(p)
	decisions := make([]bool, 400)
	for i := range decisions {
		decisions[i] = in.Next().Kind != ""
	}
	// Every trigger must be followed by at least Burst more faulted
	// requests (bursts can also chain into fresh triggers).
	fired := false
	for i := 0; i < len(decisions)-3; i++ {
		if decisions[i] && (i == 0 || !decisions[i-1]) {
			fired = true
			for j := 1; j <= 3; j++ {
				if !decisions[i+j] {
					t.Fatalf("trigger at %d not extended to request %d", i, i+j)
				}
			}
		}
	}
	if !fired {
		t.Fatal("no trigger observed in 400 requests at rate 0.2")
	}
}

// TestInjectorConcurrent hammers one injector from many goroutines; under
// -race this guards the shared RNG and burst state. The decisions are a
// function of the request index alone, so the faults the observer
// tallies must match, kind by kind, those of the same requests taken
// one at a time.
func TestInjectorConcurrent(t *testing.T) {
	p, ok := ByName("mixed")
	if !ok {
		t.Fatal("mixed policy missing")
	}
	const goroutines, each = 8, 200
	want := map[Kind]int{}
	serial := New(p)
	for i := 0; i < goroutines*each; i++ {
		if k := serial.Next().Kind; k != "" {
			want[k]++
		}
	}
	var mu sync.Mutex
	got := map[Kind]int{}
	in := New(p, WithObserver(func(k Kind) {
		mu.Lock()
		got[k]++
		mu.Unlock()
	}))
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				in.Next()
			}
		}()
	}
	wg.Wait()
	if len(want) == 0 {
		t.Fatalf("policy %s injected nothing over %d requests", p.Name, goroutines*each)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("concurrent fault tally %v, serial %v", got, want)
	}
}

// alwaysPolicy fires the given rule on every request.
func alwaysPolicy(r Rule) Policy {
	r.Rate = 1
	return Policy{Name: "always-" + string(r.Kind), Seed: 1, Rules: []Rule{r}}
}

func TestMiddlewareLatency(t *testing.T) {
	var slept []time.Duration
	in := New(alwaysPolicy(Rule{Kind: KindLatency, Delay: 5 * time.Millisecond}),
		WithSleep(func(d time.Duration) { slept = append(slept, d) }))
	srv := httptest.NewServer(in.Middleware(backend(t)))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	if body := drain(t, resp); resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("status = %d, body %d bytes", resp.StatusCode, len(body))
	}
	if len(slept) != 1 || slept[0] != 5*time.Millisecond {
		t.Errorf("slept = %v, want one 5ms pause", slept)
	}
}

func TestMiddlewareErrorAndObserver(t *testing.T) {
	var seen []Kind
	in := New(alwaysPolicy(Rule{Kind: KindError, Status: 503}),
		WithObserver(func(k Kind) { seen = append(seen, k) }))
	srv := httptest.NewServer(in.Middleware(backend(t)))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	body := drain(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body), "chaos") {
		t.Errorf("body = %q", body)
	}
	if len(seen) != 1 || seen[0] != KindError {
		t.Errorf("observer saw %v", seen)
	}
}

func TestMiddlewareRateLimit(t *testing.T) {
	in := New(alwaysPolicy(Rule{Kind: KindRateLimit, RetryAfter: 1500 * time.Millisecond}))
	srv := httptest.NewServer(in.Middleware(backend(t)))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	drain(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want %q (1.5s rounded up)", got, "2")
	}
}

func TestMiddlewareReset(t *testing.T) {
	in := New(alwaysPolicy(Rule{Kind: KindReset}))
	srv := httptest.NewServer(in.Middleware(backend(t)))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/x")
	if err == nil {
		drain(t, resp)
		t.Fatal("reset fault produced a healthy response")
	}
}

func TestMiddlewareTruncate(t *testing.T) {
	in := New(alwaysPolicy(Rule{Kind: KindTruncate, TruncateAt: 32}))
	srv := httptest.NewServer(in.Middleware(backend(t)))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	body := drain(t, resp)
	if len(body) != 32 {
		t.Fatalf("body = %d bytes, want 32", len(body))
	}
	var v map[string]string
	if err := json.Unmarshal(body, &v); err == nil {
		t.Fatal("truncated body still parsed as JSON")
	}
}

func TestMiddlewareSlowLoris(t *testing.T) {
	var pauses int
	in := New(alwaysPolicy(Rule{Kind: KindSlowLoris, Delay: time.Millisecond, ChunkBytes: 256}),
		WithSleep(func(time.Duration) { pauses++ }))
	srv := httptest.NewServer(in.Middleware(backend(t)))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	body := drain(t, resp)
	var v map[string]string
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("slow-loris corrupted the body: %v", err)
	}
	if pauses < 4 {
		t.Errorf("pauses = %d, want several for a 4KiB body in 256B chunks", pauses)
	}
}

// TestFaultWritersReachConnection: a handler behind the truncate and
// slow-loris writers can still set connection deadlines, so a server's
// request deadline holds under chaos.
func TestFaultWritersReachConnection(t *testing.T) {
	for _, r := range []Rule{
		{Kind: KindTruncate, TruncateAt: 32},
		{Kind: KindSlowLoris, Delay: time.Millisecond, ChunkBytes: 256},
	} {
		t.Run(string(r.Kind), func(t *testing.T) {
			in := New(alwaysPolicy(r), WithSleep(func(time.Duration) {}))
			errc := make(chan error, 1)
			srv := httptest.NewServer(in.Middleware(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				errc <- http.NewResponseController(w).SetWriteDeadline(time.Now().Add(time.Minute))
			})))
			defer srv.Close()
			resp, err := http.Get(srv.URL + "/x")
			if err != nil {
				t.Fatal(err)
			}
			drain(t, resp)
			if err := <-errc; err != nil {
				t.Errorf("SetWriteDeadline through the %s writer: %v", r.Kind, err)
			}
		})
	}
}

func TestMiddlewareExemptPaths(t *testing.T) {
	// The policy faults every decision, so the observer counts them all.
	var decisions int
	in := New(alwaysPolicy(Rule{Kind: KindError, Status: 503}), WithExemptPaths("/healthz"),
		WithObserver(func(Kind) { decisions++ }))
	srv := httptest.NewServer(in.Middleware(backend(t)))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	drain(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exempt path faulted: status %d", resp.StatusCode)
	}
	if decisions != 0 {
		t.Errorf("exempt path consumed a decision")
	}
	resp, err = http.Get(srv.URL + "/v2/lookup")
	if err != nil {
		t.Fatal(err)
	}
	drain(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("non-exempt path not faulted: status %d", resp.StatusCode)
	}
}

func TestParse(t *testing.T) {
	p, err := Parse("errors:rate=0.5,seed=7,status=500,burst=4")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || p.Rules[0].Rate != 0.5 || p.Rules[0].Status != 500 || p.Rules[0].Burst != 4 {
		t.Errorf("parsed policy = %+v", p)
	}
	if p, err := Parse("latency"); err != nil || p.Name != "latency" {
		t.Errorf("Parse(latency) = %+v, %v", p, err)
	}
	if p, err := Parse("mixed:delay=2ms,retryafter=10ms,truncate=8,chunk=64"); err != nil {
		t.Errorf("Parse(mixed overrides) = %v", err)
	} else {
		for _, r := range p.Rules {
			if r.Delay != 2*time.Millisecond {
				t.Errorf("rule %s delay = %v", r.Kind, r.Delay)
			}
		}
	}
	for _, bad := range []string{
		"nope", "latency:rate=2", "latency:rate", "latency:wat=1",
		"errors:status=404", "latency:delay=-1s", "truncate:truncate=0",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestPolicyNormalization(t *testing.T) {
	in := New(Policy{Rules: []Rule{{Kind: KindError, Rate: 1}}})
	d := in.Next()
	if d.Status != 503 {
		t.Errorf("unnormalized error status = %d, want 503", d.Status)
	}
	in = New(Policy{Rules: []Rule{{Kind: KindSlowLoris, Rate: 1}}})
	if d := in.Next(); d.ChunkBytes != 512 || d.Delay != 20*time.Millisecond {
		t.Errorf("unnormalized slowloris = %+v", d)
	}
}
