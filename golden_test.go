package routergeo

// Golden outputs: the bytes a default run must keep. testdata/golden
// holds routergeo's seed-1 stdout for -ext and -longitudinal, the
// SHA-256 of the four seed-1 .rgsnap exports, of one /v2/lookup
// response body and of the four databases the drift sweep rebuilds at
// months 4 and 8, and the seed-7 stdout for -ext. A change that alters
// any of them fails here with the first differing line; a change meant
// to alter them rewrites the files with
//
//	go test -run TestGolden . -update
//
// and says why in CHANGES.md.

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"routergeo/internal/experiments"
	"routergeo/internal/geodb"
	"routergeo/internal/geodb/httpapi"
	"routergeo/internal/geodb/snapshot"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from this build")

const goldenDir = "testdata/golden"

// goldenTarget names the build settings the recorded bytes hold for:
// the compiler may fuse multiply-adds at another GOARCH or
// microarchitecture level, which can change a float's last bit.
func goldenTarget() string {
	target := "GOARCH=" + runtime.GOARCH
	level := "GO" + strings.ToUpper(runtime.GOARCH)
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == level {
				target += " " + level + "=" + s.Value
			}
		}
	}
	return target
}

func TestGolden(t *testing.T) {
	sumsPath := filepath.Join(goldenDir, "seed1.sha256")
	target := goldenTarget()
	if !*update {
		recorded, err := os.ReadFile(sumsPath)
		if err != nil {
			t.Fatal(err)
		}
		if want := "# " + target + "\n"; !bytes.Contains(recorded, []byte(want)) {
			t.Skipf("golden bytes are recorded for another build target; this is %s", target)
		}
	}
	env := benchEnvironment(t)
	if seed := env.Cfg.World.Seed; seed != 1 {
		t.Fatalf("default world seed is %d, golden files are for seed 1", seed)
	}
	ctx := context.Background()

	// routergeo -seed 1 -ext
	checkGolden(t, "seed1-ext.txt", extOutput(t, env))

	// routergeo -seed 1 -longitudinal, at its default epochs and interval.
	var long bytes.Buffer
	if err := experiments.Longitudinal(ctx, &long, env, 3, 4); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "seed1-longitudinal.txt", long.Bytes())

	// routergeo -seed 1 -dbdir: the four snapshot exports.
	var sums bytes.Buffer
	fmt.Fprintf(&sums, "# SHA-256 of the seed-1 snapshot exports and of one /v2/lookup answer\n# %s\n", target)
	meta := snapshot.Meta{BuildEpoch: experiments.SnapshotEpoch(1), SourceFormat: "study"}
	sumSnapshots(t, &sums, "", env.DBs, meta)

	// POST /v2/lookup over every database: the first 1,000 Ark addresses
	// and two malformed entries.
	ips := make([]string, 0, 1002)
	for _, a := range env.ArkAddrs[:1000] {
		ips = append(ips, a.String())
	}
	ips = append(ips, "banana", "1.2.3")
	body, err := json.Marshal(httpapi.BatchRequest{IPs: ips})
	if err != nil {
		t.Fatal(err)
	}
	h := httpapi.NewHandler(env.DBs)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/lookup", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v2/lookup: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	fmt.Fprintf(&sums, "%x  v2-lookup.json\n", sha256.Sum256(rec.Body.Bytes()))

	// The drift sweep's later epochs: the four databases rebuilt at
	// months 4 and 8 of the churn timeline.
	for _, months := range []int{4, 8} {
		dbs, err := env.BuildDBsAt(ctx, float64(months))
		if err != nil {
			t.Fatal(err)
		}
		sumSnapshots(t, &sums, fmt.Sprintf("month-%d/", months), dbs, meta)
	}
	checkGolden(t, "seed1.sha256", sums.Bytes())

	// routergeo -seed 7 -ext, on a second default Env.
	cfg := experiments.DefaultConfig()
	cfg.World.Seed = 7
	env7, err := experiments.NewEnv(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "seed7-ext.txt", extOutput(t, env7))
}

// sumSnapshots writes each database as an RGSP snapshot stamped with
// meta and appends the SHA-256 of the file's bytes to sums, under the
// file's name after prefix.
func sumSnapshots(t *testing.T, sums *bytes.Buffer, prefix string, dbs []*geodb.DB, meta snapshot.Meta) {
	t.Helper()
	paths, err := experiments.WriteSnapshots(t.TempDir(), dbs, meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(sums, "%x  %s%s\n", sha256.Sum256(b), prefix, filepath.Base(path))
	}
}

// extOutput returns what routergeo -ext prints for env: every paper
// artifact, then every extension under its banner.
func extOutput(t *testing.T, env *experiments.Env) []byte {
	t.Helper()
	ctx := context.Background()
	var out bytes.Buffer
	if err := experiments.RunAll(ctx, &out, env); err != nil {
		t.Fatal(err)
	}
	for _, e := range experiments.Extensions() {
		experiments.Banner(&out, e)
		if err := experiments.RunOne(ctx, e, &out, env); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}

// checkGolden compares got with the named golden file, reporting the
// first differing line, or rewrites the file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join(goldenDir, name)
	if *update {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	ws, gs := bufio.NewScanner(bytes.NewReader(want)), bufio.NewScanner(bytes.NewReader(got))
	for line := 1; ; line++ {
		wok, gok := ws.Scan(), gs.Scan()
		if !wok && !gok {
			t.Errorf("%s: bytes differ (line endings or a final newline)", path)
			return
		}
		if wok != gok || ws.Text() != gs.Text() {
			t.Errorf("%s: first difference at line %d:\n  golden: %q\n  got:    %q", path, line, ws.Text(), gs.Text())
			return
		}
	}
}
