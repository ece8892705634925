package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"routergeo/internal/ipx"
)

func postJSON(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestV2LookupBatch(t *testing.T) {
	srv := testServer(t)
	resp := postJSON(t, srv.URL+"/v2/lookup", `{"ips":["10.0.1.2","192.0.2.1"]}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(out.Entries))
	}
	hit := out.Entries[0]
	if hit.IP != "10.0.1.2" || hit.Error != "" || len(hit.Results) != 2 {
		t.Fatalf("entry 0 = %+v", hit)
	}
	if a := hit.Results["alpha"]; !a.Found || a.City != "Dallas" || a.BlockBits != 16 {
		t.Errorf("alpha = %+v", a)
	}
	miss := out.Entries[1]
	if miss.Error != "" {
		t.Fatalf("miss entry has error %q", miss.Error)
	}
	for name, r := range miss.Results {
		if r.Found || r.Resolution != "none" {
			t.Errorf("%s should miss, got %+v", name, r)
		}
	}
}

func TestV2LookupDBFilter(t *testing.T) {
	srv := testServer(t)
	resp := postJSON(t, srv.URL+"/v2/lookup", `{"ips":["10.0.1.2"],"db":"beta"}`)
	defer resp.Body.Close()
	var out BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Entries) != 1 || len(out.Entries[0].Results) != 1 {
		t.Fatalf("entries = %+v", out.Entries)
	}
	if _, ok := out.Entries[0].Results["beta"]; !ok {
		t.Error("beta missing from filtered batch answer")
	}
}

func TestV2LookupMalformedEntriesAreLocal(t *testing.T) {
	// A malformed address must fail its own entry, not the whole request.
	srv := testServer(t)
	resp := postJSON(t, srv.URL+"/v2/lookup", `{"ips":["banana","10.0.1.2","999.1.1.1"]}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 despite malformed entries", resp.StatusCode)
	}
	var out BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Entries) != 3 {
		t.Fatalf("entries = %d", len(out.Entries))
	}
	if out.Entries[0].Error == "" || out.Entries[2].Error == "" {
		t.Errorf("malformed entries lack errors: %+v", out.Entries)
	}
	if out.Entries[1].Error != "" || len(out.Entries[1].Results) == 0 {
		t.Errorf("well-formed entry tainted: %+v", out.Entries[1])
	}
}

func TestV2LookupOversizedBatch413(t *testing.T) {
	srv := httptest.NewServer(NewHandler(testDBs(t), WithMaxBatch(4)))
	defer srv.Close()
	resp := postJSON(t, srv.URL+"/v2/lookup", `{"ips":["10.0.0.1","10.0.0.2","10.0.0.3","10.0.0.4","10.0.0.5"]}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.MaxBatch != 4 {
		t.Errorf("MaxBatch = %d, want 4 so clients can re-chunk", e.MaxBatch)
	}
}

func TestV2LookupOversizedBody413(t *testing.T) {
	srv := httptest.NewServer(NewHandler(testDBs(t), WithMaxBodyBytes(64)))
	defer srv.Close()
	var b bytes.Buffer
	b.WriteString(`{"ips":[`)
	for i := 0; i < 100; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `"10.0.0.%d"`, i%250)
	}
	b.WriteString(`]}`)
	resp := postJSON(t, srv.URL+"/v2/lookup", b.String())
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}

func TestV2LookupBadRequests(t *testing.T) {
	srv := testServer(t)
	for _, tc := range []struct {
		body string
		want int
	}{
		{`not json`, http.StatusBadRequest},
		{`{"ips":[]}`, http.StatusBadRequest},
		{`{}`, http.StatusBadRequest},
		{`{"ips":["10.0.0.1"],"db":"nope"}`, http.StatusNotFound},
	} {
		resp := postJSON(t, srv.URL+"/v2/lookup", tc.body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("POST %q = %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
	}
}

// TestV2LookupLargeBatchKeepsOrder posts a 768-entry batch to the
// default handler: the answer must preserve request order entry by
// entry.
func TestV2LookupLargeBatchKeepsOrder(t *testing.T) {
	srv := testServer(t)
	n := 768
	ips := make([]string, n)
	for i := range ips {
		ips[i] = fmt.Sprintf("10.0.%d.%d", i/250, i%250)
	}
	body, _ := json.Marshal(BatchRequest{IPs: ips})
	resp := postJSON(t, srv.URL+"/v2/lookup", string(body))
	defer resp.Body.Close()
	var out BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Entries) != n {
		t.Fatalf("entries = %d, want %d", len(out.Entries), n)
	}
	for i, e := range out.Entries {
		if e.IP != ips[i] {
			t.Fatalf("entry %d = %q, want %q (order lost)", i, e.IP, ips[i])
		}
		if e.Error != "" || !e.Results["alpha"].Found {
			t.Fatalf("entry %d unresolved: %+v", i, e)
		}
	}
}

func TestV2Databases(t *testing.T) {
	srv := testServer(t)
	c := NewClient(srv.URL)
	infos, err := c.DatabaseInfos()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("infos = %+v", infos)
	}
	// alpha is a single city-resolution /16; beta a country-resolution /16.
	if infos[0].Name != "alpha" || infos[0].Ranges != 1 || infos[0].CityRanges != 1 || infos[0].CountryRanges != 0 {
		t.Errorf("alpha info = %+v", infos[0])
	}
	if infos[1].Name != "beta" || infos[1].CountryRanges != 1 || infos[1].CityRanges != 0 {
		t.Errorf("beta info = %+v", infos[1])
	}
}

func TestV2Stats(t *testing.T) {
	srv := testServer(t)
	c := NewClient(srv.URL, WithDatabase("alpha"))
	if _, ok := c.Lookup(ipx.MustParseAddr("10.0.0.1")); !ok {
		t.Fatal("lookup should hit")
	}
	if _, ok := c.Lookup(ipx.MustParseAddr("192.0.2.1")); ok {
		t.Fatal("lookup should miss")
	}
	if _, err := c.BatchLookup(context.Background(), []string{"10.0.0.9"}); err != nil {
		t.Fatal(err)
	}
	s, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.Requests < 3 {
		t.Errorf("Requests = %d, want >= 3", s.Requests)
	}
	// The client's single-address path is a one-address /v2 batch.
	if s.ByEndpoint["GET /v1/lookup"] != 0 || s.ByEndpoint["POST /v2/lookup"] != 3 {
		t.Errorf("ByEndpoint = %+v", s.ByEndpoint)
	}
	// All three lookups were pinned to alpha: two hits, one miss; beta
	// never answered.
	if got := s.DBs["alpha"]; got.Hits != 2 || got.Misses != 1 {
		t.Errorf("alpha tally = %+v", got)
	}
	if len(s.LatencyMs) != 3 {
		t.Errorf("LatencyMs = %+v, want p50/p90/p99", s.LatencyMs)
	}
	if s.Draining {
		t.Error("fresh server reports draining")
	}
}

func TestHealthzDraining(t *testing.T) {
	h := NewHandler(testDBs(t))
	srv := httptest.NewServer(h)
	defer srv.Close()

	get := func() (int, string) {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		_, _ = b.ReadFrom(resp.Body)
		return resp.StatusCode, strings.TrimSpace(b.String())
	}
	if code, body := get(); code != http.StatusOK || body != "ok" {
		t.Fatalf("healthy = %d %q", code, body)
	}
	h.SetDraining(true)
	if code, body := get(); code != http.StatusServiceUnavailable || body != "draining" {
		t.Fatalf("draining = %d %q", code, body)
	}
	h.SetDraining(false)
	if code, _ := get(); code != http.StatusOK {
		t.Fatalf("recovered = %d", code)
	}
}

func TestRecoveryMiddleware(t *testing.T) {
	// A panicking handler behind the stack must answer 500, not kill the
	// connection.
	panicky := recoveryMiddleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	}))
	srv := httptest.NewServer(panicky)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", resp.StatusCode)
	}
}

// TestV2StatsSurfacesResilience proves the chaos/breaker/taint sections
// appear in /v2/stats when a client registers its instruments in the
// handler's registry (WithClientMetrics), and stay omitted otherwise.
func TestV2StatsSurfacesResilience(t *testing.T) {
	h := NewHandler(testDBs(t))
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)

	// Plain deployments keep the frozen pre-chaos shape.
	plain := NewClient(srv.URL)
	s, err := plain.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.Chaos != nil || s.Breakers != nil || s.Taint != nil {
		t.Fatalf("fresh stats carry resilience sections: %+v", s)
	}

	// A client against a dead host, reporting into this server's
	// registry: trip its breaker and taint a lookup.
	dead := NewClient("http://127.0.0.1:1",
		WithDatabase("alpha"),
		WithRetries(0),
		WithTimeout(time.Second),
		WithBreaker(2, time.Minute),
		WithClientMetrics(h.Registry()))
	p, err := NewRemoteProvider(dead)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // 2 failures trip it; the 3rd short-circuits
		p.Lookup(ipx.MustParseAddr("10.0.0.1"))
	}
	// The chaos middleware's observer feeds the same registry prefix.
	h.Registry().Counter("chaos.injected.error").Add(3)

	s, err = plain.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Chaos["error"]; got != 3 {
		t.Errorf("Chaos[error] = %d, want 3", got)
	}
	bs, ok := s.Breakers["127.0.0.1:1"]
	if !ok {
		t.Fatalf("Breakers = %+v, want an entry for 127.0.0.1:1", s.Breakers)
	}
	if bs.State != "open" || bs.Opens != 1 || bs.ShortCircuits == 0 {
		t.Errorf("breaker section = %+v", bs)
	}
	if s.Taint["transport_errors"] == 0 || s.Taint["tainted_lookups"] == 0 {
		t.Errorf("Taint = %+v, want transport_errors and tainted_lookups > 0", s.Taint)
	}
}
