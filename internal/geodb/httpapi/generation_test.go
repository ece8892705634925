package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"routergeo/internal/geo"
	"routergeo/internal/geodb"
	"routergeo/internal/ipx"
)

// altDBs builds a serving set that answers differently from testDBs, so
// a swap is observable through lookups as well as the generation id.
func altDBs(t *testing.T) []*geodb.DB {
	t.Helper()
	b := geodb.NewBuilder("alpha")
	b.AddPrefix(0, ipx.MustParsePrefix("10.0.0.0/16"), geodb.Record{
		Country: "FR", City: "Paris", Coord: geo.Coordinate{Lat: 48.85, Lon: 2.35},
		Resolution: geodb.ResolutionCity, BlockBits: 16,
	})
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return []*geodb.DB{db}
}

func TestGenerationHeaderOnEveryResponse(t *testing.T) {
	h := NewHandler(testDBs(t))
	srv := httptest.NewServer(h)
	defer srv.Close()

	for _, path := range []string{
		"/v1/databases",
		"/v1/lookup?ip=10.0.0.1",
		"/v2/databases",
		"/v2/stats",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := resp.Header.Get(GenerationHeader); got != h.Generation() {
			t.Errorf("%s: %s = %q, want %q", path, GenerationHeader, got, h.Generation())
		}
	}
}

func TestV2ETagNotModified(t *testing.T) {
	h := NewHandler(testDBs(t))
	srv := httptest.NewServer(h)
	defer srv.Close()

	for _, path := range []string{"/v2/databases", "/v2/stats"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		etag := resp.Header.Get("ETag")
		if want := `"` + h.Generation() + `"`; etag != want {
			t.Fatalf("%s: ETag = %q, want %q", path, etag, want)
		}

		cases := []struct {
			inm  string
			want int
		}{
			{etag, http.StatusNotModified},
			{"*", http.StatusNotModified},
			{"W/" + etag, http.StatusNotModified},
			{`"stale", ` + etag, http.StatusNotModified},
			{`"stale"`, http.StatusOK},
			{"", http.StatusOK},
		}
		for _, c := range cases {
			req, _ := http.NewRequest("GET", srv.URL+path, nil)
			if c.inm != "" {
				req.Header.Set("If-None-Match", c.inm)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != c.want {
				t.Errorf("%s If-None-Match=%q: status = %d, want %d",
					path, c.inm, resp.StatusCode, c.want)
			}
		}
	}
}

func TestSwapChangesGenerationAndAnswers(t *testing.T) {
	h := NewHandler(testDBs(t))
	srv := httptest.NewServer(h)
	defer srv.Close()

	gen1 := h.Generation()
	oldETag := `"` + gen1 + `"`
	if id := h.Swap(altDBs(t)); id == gen1 {
		t.Fatalf("Swap returned the old generation id %s", id)
	}
	if h.Generation() == gen1 {
		t.Fatal("Generation unchanged after Swap")
	}

	// The pre-swap ETag must now miss, and the body reflect the new set.
	req, _ := http.NewRequest("GET", srv.URL+"/v2/databases", nil)
	req.Header.Set("If-None-Match", oldETag)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale ETag must re-fetch, got %d", resp.StatusCode)
	}
	var infos []DatabaseInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "alpha" {
		t.Fatalf("post-swap databases = %+v", infos)
	}
	if infos[0].Snapshot == nil || infos[0].Snapshot.Generation == "" {
		t.Fatalf("post-swap database missing snapshot identity: %+v", infos[0])
	}

	// Stats surface the flip: new generation, a reload counted, and the
	// per-database identity block.
	var s StatsResponse
	if err := getJSON(srv.URL+"/v2/stats", &s); err != nil {
		t.Fatal(err)
	}
	if s.Generation != h.Generation() {
		t.Errorf("stats generation = %q, want %q", s.Generation, h.Generation())
	}
	if s.Reloads != 1 {
		t.Errorf("stats reloads = %d, want 1", s.Reloads)
	}
	if _, ok := s.Snapshots["alpha"]; !ok {
		t.Errorf("stats snapshots missing alpha: %+v", s.Snapshots)
	}
}

func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func TestSwapClosersWaitForReaders(t *testing.T) {
	var closed atomic.Bool
	h := NewHandler(nil)
	h.Swap(testDBs(t), func() error { closed.Store(true); return nil })

	// Pin the generation the way an in-flight request does, swap it out,
	// and verify the mapping release only runs after the last reader.
	g := h.acquireGen()
	h.Swap(altDBs(t))
	if closed.Load() {
		t.Fatal("closers ran while a reader still held the generation")
	}
	if _, ok := g.byName["alpha"].Lookup(ipx.MustParseAddr("10.0.0.1")); !ok {
		t.Fatal("pinned generation must stay queryable after being swapped out")
	}
	g.release()
	if !closed.Load() {
		t.Fatal("closers did not run after the last reader drained")
	}
}

// TestConcurrentLookupsDuringSwaps is the -race half of the hot-reload
// contract: lookups hammer the server while generations swap underneath,
// and every response must be a well-formed 200 from exactly one
// generation, with every retired generation's closers eventually run.
func TestConcurrentLookupsDuringSwaps(t *testing.T) {
	h := NewHandler(testDBs(t))
	srv := httptest.NewServer(h)
	defer srv.Close()

	const (
		readers = 8
		queries = 40
		swaps   = 25
	)
	var closers atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < queries; j++ {
				resp, err := http.Get(srv.URL + "/v1/lookup?ip=10.0.0.1")
				if err != nil {
					errCh <- err
					return
				}
				var body LookupResponse
				err = json.NewDecoder(resp.Body).Decode(&body)
				resp.Body.Close()
				if err != nil {
					errCh <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("lookup status %d mid-swap", resp.StatusCode)
					return
				}
				cc := body.Results["alpha"].Country
				if cc != "US" && cc != "FR" {
					errCh <- fmt.Errorf("lookup answered from no known generation: %+v", body)
					return
				}
			}
		}()
	}
	for i := 0; i < swaps; i++ {
		dbs := testDBs(t)
		if i%2 == 0 {
			dbs = altDBs(t)
		}
		h.Swap(dbs, func() error { closers.Add(1); return nil })
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	// Retire the final generation too; with no requests in flight every
	// closer must have run.
	h.Swap(testDBs(t))
	if got := closers.Load(); got != swaps {
		t.Errorf("closers run = %d, want %d", got, swaps)
	}
}

func TestClientObservesGenerationFlips(t *testing.T) {
	h := NewHandler(testDBs(t))
	srv := httptest.NewServer(h)
	defer srv.Close()

	c := NewClient(srv.URL, WithDatabase("alpha"))
	if _, _, err := c.TryLookup(c.rootCtx(), ipx.MustParseAddr("10.0.0.1")); err != nil {
		t.Fatal(err)
	}
	if c.GenerationFlips() != 0 {
		t.Fatalf("flips before any swap = %d", c.GenerationFlips())
	}
	h.Swap(altDBs(t))
	if _, _, err := c.TryLookup(c.rootCtx(), ipx.MustParseAddr("10.0.0.1")); err != nil {
		t.Fatal(err)
	}
	if c.GenerationFlips() != 1 {
		t.Errorf("flips after swap = %d, want 1", c.GenerationFlips())
	}
}

func TestAdminReloadRouteAbsentWhenUnarmed(t *testing.T) {
	srv := httptest.NewServer(NewHandler(testDBs(t)))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v2/admin/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unarmed admin reload status = %d, want 404", resp.StatusCode)
	}
}

func TestAdminReloadEndpoint(t *testing.T) {
	var swapped bool
	var hookErr error
	var gotForce bool
	h := NewHandler(testDBs(t), WithAdminReload(func(force bool) (bool, error) {
		gotForce = force
		return swapped, hookErr
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()

	post := func(url string) (int, ReloadResponse) {
		t.Helper()
		resp, err := http.Post(url, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rr ReloadResponse
		_ = json.NewDecoder(resp.Body).Decode(&rr)
		return resp.StatusCode, rr
	}

	swapped = true
	status, rr := post(srv.URL + "/v2/admin/reload")
	if status != http.StatusOK || rr.Status != "reloaded" {
		t.Errorf("reloaded: status=%d body=%+v", status, rr)
	}
	if gotForce {
		t.Error("force must default to false")
	}
	if rr.Generation != h.Generation() {
		t.Errorf("reload generation = %q, want %q", rr.Generation, h.Generation())
	}

	swapped = false
	status, rr = post(srv.URL + "/v2/admin/reload?force=1")
	if status != http.StatusOK || rr.Status != "unchanged" {
		t.Errorf("unchanged: status=%d body=%+v", status, rr)
	}
	if !gotForce {
		t.Error("?force=1 did not reach the hook")
	}

	hookErr = ErrReloadInFlight
	if status, _ = post(srv.URL + "/v2/admin/reload"); status != http.StatusConflict {
		t.Errorf("in-flight reload status = %d, want 409", status)
	}

	hookErr = errors.New("disk on fire")
	if status, _ = post(srv.URL + "/v2/admin/reload"); status != http.StatusInternalServerError {
		t.Errorf("failed reload status = %d, want 500", status)
	}
}
