package routergeo

// Acceptance suite for the longitudinal workload: a 3-epoch snapshot
// series published the way geosnap does must be reproducible byte for
// byte, and a server holding the series in its snapshot archive must
// answer /v2/lookup?asof= queries byte-identically to a server loading
// each epoch's snapshots directly. The drift sweep's table must be
// byte-identical between serial and parallel runs and across re-runs of
// the whole pipeline under the same seed.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"routergeo/internal/experiments"
	"routergeo/internal/geodb"
	"routergeo/internal/geodb/httpapi"
	"routergeo/internal/geodb/snapshot"
	"routergeo/internal/par"
)

const (
	longitudinalEpochs   = 3
	longitudinalInterval = 4.0 // months between epochs
)

// epochUnix spaces the published build epochs one "month" of 1000
// seconds apart per interval step — arbitrary but monotonic, which is
// all the asof selector keys on.
func epochUnix(k int) int64 { return 10_000 + int64(k)*4_000 }

// publishSeries writes the study's databases as a dated snapshot series
// under root, epoch k rebuilt at k·interval months of churn — the same
// shape `geosnap -build -epochs N -interval-months M` publishes.
func publishSeries(t *testing.T, s *Study, root string) {
	t.Helper()
	ctx := context.Background()
	for k := 0; k < longitudinalEpochs; k++ {
		dbs := s.env.DBs
		if k > 0 {
			var err error
			dbs, err = s.env.BuildDBsAt(ctx, float64(k)*longitudinalInterval)
			if err != nil {
				t.Fatal(err)
			}
		}
		dir := filepath.Join(root, fmt.Sprintf("epoch-%03d", k))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		meta := snapshot.Meta{BuildEpoch: epochUnix(k), SourceFormat: "study"}
		for _, db := range dbs {
			path := filepath.Join(dir, strings.ToLower(db.Name())+snapshot.Ext)
			if err := snapshot.WriteFile(path, db, meta); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// loadEpoch opens one epoch's snapshots (sorted by file name, so the
// serving set is deterministic) and registers their mappings for
// cleanup.
func loadEpoch(t *testing.T, root string, k int) []*geodb.DB {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(root, fmt.Sprintf("epoch-%03d", k), "*"+snapshot.Ext))
	if err != nil || len(paths) == 0 {
		t.Fatalf("epoch %d: paths=%v err=%v", k, paths, err)
	}
	sort.Strings(paths)
	var dbs []*geodb.DB
	for _, p := range paths {
		h, err := snapshot.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = h.Close() })
		dbs = append(dbs, h.DB())
	}
	return dbs
}

func TestLongitudinalSeriesRepublishByteIdentical(t *testing.T) {
	s := testStudy(t)
	dirA, dirB := t.TempDir(), t.TempDir()
	publishSeries(t, s, dirA)
	publishSeries(t, s, dirB)

	pattern := filepath.Join(dirA, "epoch-*", "*"+snapshot.Ext)
	paths, err := filepath.Glob(pattern)
	if err != nil {
		t.Fatal(err)
	}
	if want := longitudinalEpochs * len(s.env.DBs); len(paths) != want {
		t.Fatalf("series holds %d snapshots, want %d", len(paths), want)
	}
	for _, pa := range paths {
		rel, err := filepath.Rel(dirA, pa)
		if err != nil {
			t.Fatal(err)
		}
		a, err := os.ReadFile(pa)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirB, rel))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: republished series diverges (%d vs %d bytes)", rel, len(a), len(b))
		}
	}
}

func TestLongitudinalAsOfMatchesDirectSnapshotLoads(t *testing.T) {
	s := testStudy(t)
	root := t.TempDir()
	publishSeries(t, s, root)

	// The archive server walks the series the way a long-running
	// geoserve -archive would: epoch 0 first, each later epoch swapped in
	// on top, retirees held in the archive.
	archived := httpapi.NewHandler(loadEpoch(t, root, 0),
		httpapi.WithSnapshotArchive(longitudinalEpochs))
	for k := 1; k < longitudinalEpochs; k++ {
		archived.Swap(loadEpoch(t, root, k))
	}
	archiveSrv := httptest.NewServer(archived)
	defer archiveSrv.Close()

	// The query set: a deterministic slice of Ark router addresses.
	addrs := make([]string, 0, 48)
	for i, a := range s.env.ArkAddrs {
		if i == cap(addrs) {
			break
		}
		addrs = append(addrs, a.String())
	}
	body, err := json.Marshal(httpapi.BatchRequest{IPs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	post := func(url string) (int, string, []byte) {
		t.Helper()
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		payload, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get(httpapi.GenerationHeader), payload
	}

	for k := 0; k < longitudinalEpochs; k++ {
		// A second, archive-free server loads epoch k's snapshots directly
		// — the reference the time-travel answer must be byte-identical to.
		direct := httpapi.NewHandler(loadEpoch(t, root, k))
		directSrv := httptest.NewServer(direct)
		status, directGen, want := post(directSrv.URL + "/v2/lookup")
		directSrv.Close()
		if status != http.StatusOK {
			t.Fatalf("epoch %d: direct lookup status %d", k, status)
		}

		// At the exact epoch and at any instant before the next one, the
		// archive answers from epoch k's generation.
		for _, asof := range []int64{epochUnix(k), epochUnix(k) + 1_500} {
			url := fmt.Sprintf("%s/v2/lookup?asof=%d", archiveSrv.URL, asof)
			status, gen, got := post(url)
			if status != http.StatusOK {
				t.Fatalf("epoch %d asof=%d: status %d", k, asof, status)
			}
			if gen != directGen {
				t.Errorf("epoch %d asof=%d: answered by generation %s, direct load is %s",
					k, asof, gen, directGen)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("epoch %d asof=%d: response diverges from the direct snapshot load", k, asof)
			}
		}
	}

	// Before the first epoch the archive horizon answers 404 with its
	// sentinel error body.
	status, _, payload := post(fmt.Sprintf("%s/v2/lookup?asof=%d", archiveSrv.URL, epochUnix(0)-1))
	var er httpapi.ErrorResponse
	if err := json.Unmarshal(payload, &er); err != nil {
		t.Fatalf("pre-horizon asof: body %q: %v", payload, err)
	}
	if status != http.StatusNotFound || !strings.Contains(er.Error, "snapshot archive horizon") {
		t.Fatalf("pre-horizon asof: status %d, error %q; want 404 naming the archive horizon", status, er.Error)
	}
}

func TestLongitudinalDriftTableByteIdentical(t *testing.T) {
	s := testStudy(t)
	run := func(env *experiments.Env, workers int) []byte {
		t.Helper()
		par.SetParallelism(workers)
		defer par.SetParallelism(0)
		var buf bytes.Buffer
		if err := experiments.Longitudinal(context.Background(), &buf, env,
			longitudinalEpochs, longitudinalInterval); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	serial := run(s.env, 1)
	parallel := run(s.env, 4)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("drift table diverges between serial and parallel runs:\n--- serial\n%s\n--- parallel\n%s",
			serial, parallel)
	}
	if !strings.Contains(string(serial), "NetAcuity") || !strings.Contains(string(serial), "country agreement") {
		t.Fatalf("drift table incomplete:\n%s", serial)
	}
	// Every epoch prints one row per database plus a consistency line.
	lines := strings.Count(strings.TrimRight(string(serial), "\n"), "\n") + 1
	if want := 2 + longitudinalEpochs*(len(s.env.DBs)+1); lines != want {
		t.Errorf("drift table has %d lines, want %d:\n%s", lines, want, serial)
	}

	// A full same-seed pipeline rebuild reproduces the table byte for
	// byte — the sweep is a pure function of the seed.
	again, err := New(Quick(), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if rerun := run(again.env, 4); !bytes.Equal(serial, rerun) {
		t.Errorf("drift table diverges across same-seed re-runs:\n--- first\n%s\n--- rerun\n%s",
			serial, rerun)
	}
}
