package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"routergeo/internal/geo"
	"routergeo/internal/geodb"
	"routergeo/internal/ipx"
)

// epochDBs builds a one-database serving set whose content and build
// epoch both encode the epoch, so every generation in an archive test
// has a distinct identity and a distinguishable answer.
func epochDBs(t testing.TB, epoch int64) []*geodb.DB {
	t.Helper()
	b := geodb.NewBuilder("alpha")
	b.AddPrefix(0, ipx.MustParsePrefix("10.0.0.0/16"), geodb.Record{
		Country: "US", City: fmt.Sprintf("city-%d", epoch),
		Coord:      geo.Coordinate{Lat: float64(epoch % 90), Lon: -96.8},
		Resolution: geodb.ResolutionCity, BlockBits: 16,
	})
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	db.SetMeta(geodb.Meta{BuildEpoch: epoch})
	return []*geodb.DB{db}
}

// asofLookup posts one address to /v2/lookup?asof= and returns status,
// generation header, answered city, and the error body (when non-200).
func asofLookup(t *testing.T, url string, asof int64) (status int, gen, city, errText string) {
	t.Helper()
	body := []byte(`{"ips":["10.0.0.1"]}`)
	resp, err := http.Post(fmt.Sprintf("%s/v2/lookup?asof=%d", url, asof),
		"application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	gen = resp.Header.Get(GenerationHeader)
	if resp.StatusCode != http.StatusOK {
		var er ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&er)
		return resp.StatusCode, gen, "", er.Error
	}
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Entries) != 1 {
		t.Fatalf("batch answer has %d entries", len(br.Entries))
	}
	return resp.StatusCode, gen, br.Entries[0].Results["alpha"].City, ""
}

func TestAsOfSelectsArchivedGeneration(t *testing.T) {
	h := NewHandler(epochDBs(t, 100), WithSnapshotArchive(4))
	gen100 := h.Generation()
	h.Swap(epochDBs(t, 200))
	gen200 := h.Generation()
	h.Swap(epochDBs(t, 300))
	gen300 := h.Generation()
	if n := h.ArchivedGenerations(); n != 2 {
		t.Fatalf("archive holds %d generations, want 2", n)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	cases := []struct {
		asof     int64
		wantGen  string
		wantCity string
	}{
		{100, gen100, "city-100"}, // exact epoch
		{150, gen100, "city-100"}, // between epochs: newest at-or-before wins
		{200, gen200, "city-200"},
		{299, gen200, "city-200"},
		{300, gen300, "city-300"}, // the live generation is selectable too
		{1 << 40, gen300, "city-300"},
	}
	for _, tc := range cases {
		status, gen, city, _ := asofLookup(t, srv.URL, tc.asof)
		if status != http.StatusOK || gen != tc.wantGen || city != tc.wantCity {
			t.Errorf("asof=%d: status=%d gen=%s city=%s, want 200 %s %s",
				tc.asof, status, gen, city, tc.wantGen, tc.wantCity)
		}
	}

	// Before the horizon: 404 carrying the sentinel text, stamped with
	// the live generation (nothing historical answered).
	status, _, _, errText := asofLookup(t, srv.URL, 99)
	if status != http.StatusNotFound || errText != beforeHorizonText {
		t.Fatalf("asof=99: status=%d err=%q, want 404 sentinel", status, errText)
	}

	// A plain lookup still answers from the live generation.
	var lr LookupResponse
	if err := getJSON(srv.URL+"/v1/lookup?ip=10.0.0.1", &lr); err != nil {
		t.Fatal(err)
	}
	if lr.Results["alpha"].City != "city-300" {
		t.Fatalf("live lookup answered %q", lr.Results["alpha"].City)
	}
}

func TestAsOfInvalidParameter(t *testing.T) {
	srv := httptest.NewServer(NewHandler(epochDBs(t, 100), WithSnapshotArchive(2)))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v2/lookup?asof=yesterday",
		"application/json", bytes.NewReader([]byte(`{"ips":["10.0.0.1"]}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestAsOfWithoutArchiveOnlyMatchesLive(t *testing.T) {
	h := NewHandler(epochDBs(t, 100))
	h.Swap(epochDBs(t, 200)) // without an archive the retiree is released
	srv := httptest.NewServer(h)
	defer srv.Close()

	if status, _, city, _ := asofLookup(t, srv.URL, 250); status != http.StatusOK || city != "city-200" {
		t.Fatalf("asof past the live epoch: status=%d city=%s", status, city)
	}
	status, _, _, errText := asofLookup(t, srv.URL, 150)
	if status != http.StatusNotFound || errText != beforeHorizonText {
		t.Fatalf("asof before the live epoch without archive: status=%d err=%q", status, errText)
	}
}

// TestEmptyBootGenerationNotArchived pins the geoserve -snap-dir boot
// shape: the handler starts with no databases, and the first Rescan
// swaps the scanned snapshots in. The empty boot generation must not be
// archived — it can answer nothing, and its zero epoch would shadow the
// real archive horizon, turning every pre-horizon asof into a 200 with
// empty results instead of the 404 sentinel.
func TestEmptyBootGenerationNotArchived(t *testing.T) {
	h := NewHandler(nil, WithSnapshotArchive(4))
	h.Swap(epochDBs(t, 100))
	h.Swap(epochDBs(t, 200))
	if n := h.ArchivedGenerations(); n != 1 {
		t.Fatalf("archive holds %d generations, want 1 (empty boot generation must be dropped)", n)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()
	if status, _, city, _ := asofLookup(t, srv.URL, 100); status != http.StatusOK || city != "city-100" {
		t.Fatalf("asof at the archived epoch: status=%d city=%s", status, city)
	}
	status, _, _, errText := asofLookup(t, srv.URL, 99)
	if status != http.StatusNotFound || errText != beforeHorizonText {
		t.Fatalf("asof before the real horizon: status=%d err=%q (empty boot generation answered?)", status, errText)
	}
}

func TestArchiveEvictionReleasesGenerations(t *testing.T) {
	h := NewHandler(epochDBs(t, 100), WithSnapshotArchive(1))
	closed := make(map[int64]bool)
	closer := func(epoch int64) func() error {
		return func() error { closed[epoch] = true; return nil }
	}
	// Closers belong to the generation being swapped IN.
	h.Swap(epochDBs(t, 200), closer(200))
	h.Swap(epochDBs(t, 300), closer(300))
	// Archive cap 1: the epoch-100 generation (no closer) was evicted to
	// make room for 200; 200 is archived, 300 live — neither closed.
	if closed[200] || closed[300] {
		t.Fatalf("archived or live generation closed early: %v", closed)
	}
	h.Swap(epochDBs(t, 400))
	if !closed[200] {
		t.Fatal("evicted generation's closers did not run")
	}
	if closed[300] {
		t.Fatal("archived generation closed while still reachable")
	}
	if n := h.ArchivedGenerations(); n != 1 {
		t.Fatalf("archive holds %d, want 1", n)
	}
}

func TestStatsReportArchive(t *testing.T) {
	h := NewHandler(epochDBs(t, 100), WithSnapshotArchive(8))
	h.Swap(epochDBs(t, 200))
	h.Swap(epochDBs(t, 300))
	srv := httptest.NewServer(h)
	defer srv.Close()
	var s StatsResponse
	if err := getJSON(srv.URL+"/v2/stats", &s); err != nil {
		t.Fatal(err)
	}
	if s.Archive == nil {
		t.Fatal("stats carry no archive block")
	}
	if s.Archive.Generations != 2 || s.Archive.Max != 8 || s.Archive.HorizonEpoch != 100 {
		t.Fatalf("archive block = %+v, want {2 8 100}", s.Archive)
	}
}

func TestStatsOmitArchiveWhenDisabled(t *testing.T) {
	srv := httptest.NewServer(NewHandler(testDBs(t)))
	defer srv.Close()
	var s StatsResponse
	if err := getJSON(srv.URL+"/v2/stats", &s); err != nil {
		t.Fatal(err)
	}
	if s.Archive != nil {
		t.Fatalf("archive block present without WithSnapshotArchive: %+v", s.Archive)
	}
}

func TestClientWithAsOf(t *testing.T) {
	h := NewHandler(epochDBs(t, 100), WithSnapshotArchive(4))
	h.Swap(epochDBs(t, 200))
	srv := httptest.NewServer(h)
	defer srv.Close()

	addr := ipx.MustParseAddr("10.0.0.1")
	c := NewClient(srv.URL, WithAsOf(150), WithDatabase("alpha"))
	entries, err := c.BatchLookup(context.Background(), []string{"10.0.0.1"})
	if err != nil {
		t.Fatal(err)
	}
	if got := entries[0].Results["alpha"].City; got != "city-100" {
		t.Fatalf("asof-pinned batch answered %q, want city-100", got)
	}
	// The single-address paths honour the same pin.
	if rec, ok, err := c.TryLookup(context.Background(), addr); err != nil || !ok || rec.City != "city-100" {
		t.Fatalf("asof-pinned TryLookup = (%+v, %v, %v), want city-100", rec, ok, err)
	}
	p, err := NewRemoteProvider(c)
	if err != nil {
		t.Fatal(err)
	}
	if rec, ok := p.Lookup(addr); !ok || rec.City != "city-100" {
		t.Fatalf("asof-pinned RemoteProvider.Lookup = (%+v, %v), want city-100", rec, ok)
	}

	// Before the horizon: terminal sentinel, no retry burn.
	attempts := 0
	hc := &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		attempts++
		return http.DefaultTransport.RoundTrip(r)
	})}
	c = NewClient(srv.URL, WithAsOf(50), WithDatabase("alpha"), WithHTTPClient(hc))
	if _, err := c.BatchLookup(context.Background(), []string{"10.0.0.1"}); !errors.Is(err, ErrBeforeArchiveHorizon) {
		t.Fatalf("err = %v, want ErrBeforeArchiveHorizon", err)
	}
	if attempts != 1 {
		t.Fatalf("horizon miss burned %d attempts, want 1 (terminal)", attempts)
	}
	if _, _, err := c.TryLookup(context.Background(), addr); !errors.Is(err, ErrBeforeArchiveHorizon) {
		t.Fatalf("TryLookup err = %v, want ErrBeforeArchiveHorizon", err)
	}
	if attempts != 2 {
		t.Fatalf("TryLookup horizon miss burned %d attempts, want 1 (terminal)", attempts-1)
	}
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// benchEpochDBs rebuilds the standard benchmark databases stamped with a
// build epoch so ?asof= has generations to choose between.
func benchEpochDBs(b *testing.B, epoch int64) []*geodb.DB {
	dbs := benchDBs(b)
	for _, db := range dbs {
		db.SetMeta(geodb.Meta{BuildEpoch: epoch})
	}
	return dbs
}

// BenchmarkV2AsOf measures the time-travel lookup path: the asof parse,
// the archive scan under its mutex, and the extra generation pin, on top
// of the same white-box harness BenchmarkV2LookupHandler uses. The
// archived generation answers, so the scan never short-circuits on the
// live one.
func BenchmarkV2AsOf(b *testing.B) {
	h := NewHandler(benchEpochDBs(b, 100), WithSnapshotArchive(4))
	h.Swap(benchEpochDBs(b, 200))
	h.Swap(benchEpochDBs(b, 300))
	for _, n := range []int{16, 512} {
		b.Run(fmt.Sprintf("batch=%d", n), func(b *testing.B) {
			body := batchBody(n)
			rb := &replayBody{data: body}
			req := httptest.NewRequest(http.MethodPost, "/v2/lookup?asof=250", rb)
			req.Body = rb
			w := &nullResponseWriter{h: make(http.Header)}
			rb.off = 0
			h.handleV2Lookup(w, req) // warm the pools
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rb.off = 0
				h.handleV2Lookup(w, req)
			}
			b.StopTimer()
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "addrs/s")
		})
	}
}
