package routergeo

// End-to-end acceptance tests for the batch-first /v2 API: the remote
// evaluation path must reproduce local evaluation bit-for-bit, and the
// batch endpoint must swallow a 10k-address request in one round trip.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"routergeo/internal/core"
	"routergeo/internal/geodb/httpapi"
)

// countingHandler wraps the API handler and tallies /v2/lookup hits.
type countingHandler struct {
	h       http.Handler
	lookups atomic.Int64
}

func (c *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v2/lookup" {
		c.lookups.Add(1)
	}
	c.h.ServeHTTP(w, r)
}

func TestV2Batch10kAddressesOneRequest(t *testing.T) {
	s := testStudy(t)
	ch := &countingHandler{h: httpapi.NewHandler(s.env.DBs)}
	srv := httptest.NewServer(ch)
	defer srv.Close()

	ark := s.ArkAddresses()
	ips := make([]string, 0, 10_000)
	for len(ips) < cap(ips) {
		ips = append(ips, ark[len(ips)%len(ark)])
	}
	body, err := json.Marshal(httpapi.BatchRequest{IPs: ips})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v2/lookup", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out httpapi.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Entries) != len(ips) {
		t.Fatalf("entries = %d, want %d", len(out.Entries), len(ips))
	}
	if got := ch.lookups.Load(); got != 1 {
		t.Fatalf("batch took %d requests, want 1", got)
	}
	for i, e := range out.Entries {
		if e.Error != "" {
			t.Fatalf("entry %d (%s): %s", i, e.IP, e.Error)
		}
	}
}

func TestRemoteProviderMatchesLocalEvaluation(t *testing.T) {
	// The issue's acceptance bar: RemoteProvider with WithConcurrency(8)
	// evaluates the full Quick-study ground truth against a local
	// httptest server with results identical to local geodb.DB lookups.
	// Identical means every observable: the accuracy fingerprint with its
	// error-CDF samples, and coverage over the Ark addresses, at a chunk
	// size that splits the sweep and at the default one.
	s := testStudy(t)
	srv := httptest.NewServer(httpapi.NewHandler(s.env.DBs))
	defer srv.Close()

	for _, batch := range []int{500, httpapi.DefaultClientMaxBatch} {
		for _, db := range s.env.DBs {
			remote, err := httpapi.NewRemoteProvider(httpapi.NewClient(srv.URL,
				httpapi.WithDatabase(db.Name()),
				httpapi.WithConcurrency(8),
				httpapi.WithClientMaxBatch(batch)))
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			want := accuracyFingerprint(t, core.MeasureAccuracy(ctx, db, s.env.Targets))
			if got := accuracyFingerprint(t, core.MeasureAccuracy(ctx, remote, s.env.Targets)); string(got) != string(want) {
				t.Errorf("%s, batch %d: remote accuracy\n %s\n!= local\n %s", db.Name(), batch, got, want)
			}
			wantCov := core.MeasureCoverage(ctx, db, s.env.ArkAddrs)
			if got := core.MeasureCoverage(ctx, remote, s.env.ArkAddrs); got != wantCov {
				t.Errorf("%s, batch %d: remote coverage %+v != local %+v", db.Name(), batch, got, wantCov)
			}
			if remote.Cached() == 0 {
				t.Errorf("%s: prefetch hook never fired; evaluation fell back to per-address lookups", db.Name())
			}
			if err := remote.Err(); err != nil {
				t.Errorf("%s: transport errors during evaluation: %v", db.Name(), err)
			}
		}
	}
}

func TestStudyLookupBatch(t *testing.T) {
	s := testStudy(t)
	db := s.Databases()[0]
	ark := s.ArkAddresses()
	ips := append([]string{}, ark[:5]...)
	ips = append(ips, "not-an-ip", "203.0.113.9")

	got := s.LookupBatch(db, ips)
	if len(got) != len(ips) {
		t.Fatalf("results = %d, want %d", len(got), len(ips))
	}
	for i, r := range got[:5] {
		if r.Err != "" {
			t.Fatalf("entry %d: unexpected error %q", i, r.Err)
		}
		loc, ok := s.Lookup(db, ips[i])
		if ok != r.Found || loc != r.Location {
			t.Errorf("entry %d: batch (%+v,%v) != single (%+v,%v)", i, r.Location, r.Found, loc, ok)
		}
	}
	if got[5].Err == "" {
		t.Error("malformed address must carry a per-entry error")
	}
	if got[6].Err != "" {
		t.Errorf("well-formed address carries error %q", got[6].Err)
	}
}
