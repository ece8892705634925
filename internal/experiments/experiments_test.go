package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"routergeo/internal/atlas"
	"routergeo/internal/gazetteer"
	"routergeo/internal/geo"
	"routergeo/internal/obs"
	"routergeo/internal/par"
)

var cachedEnv *Env

func testEnv(t *testing.T) *Env {
	t.Helper()
	if cachedEnv != nil {
		return cachedEnv
	}
	env, err := NewEnv(context.Background(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	cachedEnv = env
	return env
}

// testConfig is the small world testEnv builds.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.World.ASes = 250
	cfg.Atlas.Probes = 600
	cfg.OneMsProbes = 900
	return cfg
}

func TestEnvInvariants(t *testing.T) {
	env := testEnv(t)
	if len(env.DBs) != 4 {
		t.Fatalf("%d databases built", len(env.DBs))
	}
	if env.GT.Len() != len(env.Targets) {
		t.Errorf("targets (%d) != ground truth (%d)", len(env.Targets), env.GT.Len())
	}
	if env.DNS.Len()+env.RTTDS.Len() < env.GT.Len() {
		t.Error("merged ground truth exceeds its parts")
	}
	if len(env.ArkAddrs) != len(env.Coll.Interfaces) {
		t.Error("Ark address list inconsistent with collection")
	}
	if env.OneMs.Len() == 0 {
		t.Error("1ms comparison dataset empty")
	}
	// Probe i has ID i, in the test fleet and in fleets of both sizes a
	// default NewEnv deploys: BuildRTT and the analyses read a probe as
	// Fleet.Probes[ProbeID].
	def := DefaultConfig()
	fleets := []*atlas.Fleet{
		env.Fleet,
		atlas.Deploy(env.W, def.Atlas),
		atlas.Deploy(env.W, atlas.Config{Probes: def.OneMsProbes, Seed: def.Atlas.Seed + 1000}),
	}
	for _, f := range fleets {
		for i, p := range f.Probes {
			if p.ID != i {
				t.Fatalf("fleet of %d probes: probe %d has ID %d", len(f.Probes), i, p.ID)
			}
		}
	}
	// Every target address must resolve in the world and carry a RIR.
	for _, tg := range env.Targets[:min(200, len(env.Targets))] {
		if _, ok := env.W.IfaceByAddr(tg.Addr); !ok {
			t.Fatalf("target %v unknown to world", tg.Addr)
		}
		if tg.RIR == geo.RIRUnknown {
			t.Fatalf("target %v has no RIR", tg.Addr)
		}
	}
}

// TestNewEnvChecksArkMonitors runs NewEnv at 0, 1, 442 and 443 Ark
// monitors, in that order. Each monitor takes an embedded city of its
// own, so 0 and 443 must fail before the build (the sweep's placement
// would panic on 0 and never finish at 443), and 1 and 442 must place
// exactly that many monitors.
func TestNewEnvChecksArkMonitors(t *testing.T) {
	for _, n := range []int{0, 1, gazetteer.NumCities(), gazetteer.NumCities() + 1} {
		cfg := testConfig()
		cfg.Ark.Monitors = n
		env, err := NewEnv(context.Background(), cfg)
		if valid := n >= 1 && n <= gazetteer.NumCities(); !valid {
			if err == nil {
				t.Fatalf("%d monitors: NewEnv returned no error", n)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%d monitors: %v", n, err)
		}
		if got := len(env.Coll.Monitors); got != n {
			t.Fatalf("%d monitors asked for, %d placed", n, got)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("malformed experiment %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate experiment id %q", e.ID)
		}
		ids[e.ID] = true
	}
	want := []string{"table1", "sec31", "sec32", "sec4", "sec51", "fig1",
		"sec521", "fig2", "fig3", "fig4", "fig5", "sec523", "sec524", "rec"}
	if len(ids) != len(want) {
		t.Fatalf("have %d experiments, want %d", len(ids), len(want))
	}
	for _, id := range want {
		if !ids[id] {
			t.Errorf("experiment %q missing", id)
		}
	}
	// Presentation order: table1 first, rec last.
	all := All()
	if all[0].ID != "table1" || all[len(all)-1].ID != "rec" {
		t.Errorf("presentation order wrong: %s ... %s", all[0].ID, all[len(all)-1].ID)
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig2"); !ok {
		t.Error("fig2 should exist")
	}
	if _, ok := ByID("ext-cbg"); !ok {
		t.Error("ByID should find extensions")
	}
	if _, ok := ByID("fig99"); ok {
		t.Error("fig99 should not exist")
	}
}

func TestExtensionsSeparateFromPaperArtifacts(t *testing.T) {
	exts := Extensions()
	if len(exts) != 6 {
		t.Fatalf("got %d extensions", len(exts))
	}
	paper := map[string]bool{}
	for _, e := range All() {
		paper[e.ID] = true
	}
	for _, e := range exts {
		if paper[e.ID] {
			t.Errorf("extension %s leaked into the paper artifact list", e.ID)
		}
		if !strings.HasPrefix(e.ID, "ext-") {
			t.Errorf("extension id %q should be ext-prefixed", e.ID)
		}
	}
}

// TestExtensionsRun executes the four beyond-the-paper analyses and
// verifies their headline claims hold in the built environment.
func TestExtensionsRun(t *testing.T) {
	env := testEnv(t)
	markers := map[string][]string{
		"ext-cbg":      {"CBG (delay-based)", "NetAcuity"},
		"ext-blocks":   {"co-located", "spanning"},
		"ext-ablation": {"threshold", "filters OFF", "purity"},
		"ext-majority": {"acc vs majority", "acc vs truth"},
		"ext-vendors":  {"hint-pipeline ablation", "SWIP ablation", "control"},
		"ext-drop":     {"learned rules", "against exact truth"},
	}
	for _, e := range Extensions() {
		var buf bytes.Buffer
		if err := RunOne(context.Background(), e, &buf, env); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		out := buf.String()
		for _, m := range markers[e.ID] {
			if !strings.Contains(out, m) {
				t.Errorf("%s output missing %q", e.ID, m)
			}
		}
	}
}

func TestWritePlotData(t *testing.T) {
	env := testEnv(t)
	dir := t.TempDir()
	if err := WritePlotData(context.Background(), dir, env); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, e := range entries {
		names[e.Name()] = true
	}
	for _, want := range []string{
		"fig1_maxmind_geolite_vs_maxmind_paid.tsv",
		"fig2_netacuity.tsv",
		"fig3.tsv",
		"fig4.tsv",
		"fig5_maxmind_paid_arin.tsv",
		"fig5_netacuity_ripencc.tsv",
	} {
		if !names[want] {
			t.Errorf("plot file %s missing (have %v)", want, names)
		}
	}
	// CDF files must be monotone step series reaching 1.0.
	data, err := os.ReadFile(dir + "/fig2_netacuity.tsv")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 10 {
		t.Fatalf("fig2 series suspiciously short: %d lines", len(lines))
	}
	var lastVal, lastCDF float64
	for _, line := range lines[2:] {
		var v, c float64
		if _, err := fmt.Sscanf(line, "%f\t%f", &v, &c); err != nil {
			t.Fatalf("bad series line %q: %v", line, err)
		}
		if v < lastVal || c < lastCDF {
			t.Fatalf("series not monotone at %q", line)
		}
		lastVal, lastCDF = v, c
	}
	if lastCDF < 0.999 {
		t.Errorf("CDF ends at %f, want 1.0", lastCDF)
	}
}

// TestEveryExperimentRuns executes all 14 artifacts and spot-checks their
// output for the paper's key row labels.
func TestEveryExperimentRuns(t *testing.T) {
	env := testEnv(t)
	markers := map[string][]string{
		"table1": {"DNS-based", "RTT-proximity", "RIPENCC", "cogentco.com"},
		"sec31":  {"Hostname churn", "1ms-RTT-proximity"},
		"sec32":  {"candidate addresses", "probes disqualified", "final dataset"},
		"sec4":   {"gazetteer", "within 40 km"},
		"sec51":  {"Pairwise country-level agreement", "All four databases agree"},
		"fig1":   {"identical coordinates", "MaxMind-GeoLite vs MaxMind-Paid"},
		"sec521": {"country accuracy", "NetAcuity"},
		"fig2":   {"Geolocation error", "IP2Location-Lite"},
		"fig3":   {"ARIN", "RIPENCC"},
		"fig4":   {"US", "Shared incorrect"},
		"fig5":   {"MaxMind-Paid", "NetAcuity", "ARIN"},
		"sec523": {"ARIN holds", "block-level"},
		"sec524": {"DNS-based acc", "RTT-proximity acc"},
		"rec":    {"NetAcuity"},
	}
	for _, e := range All() {
		var buf bytes.Buffer
		if err := RunOne(context.Background(), e, &buf, env); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		out := buf.String()
		if len(out) < 50 {
			t.Fatalf("%s output suspiciously short: %q", e.ID, out)
		}
		for _, m := range markers[e.ID] {
			if !strings.Contains(out, m) {
				t.Errorf("%s output missing %q", e.ID, m)
			}
		}
	}
}

func TestRunAll(t *testing.T) {
	env := testEnv(t)
	var buf bytes.Buffer
	if err := RunAll(context.Background(), &buf, env); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, e := range All() {
		if !strings.Contains(out, e.Title) {
			t.Errorf("RunAll output missing banner for %s", e.ID)
		}
	}
}

// TestPaperShapesHold asserts the qualitative findings the reproduction
// must deliver, end to end, at test scale. These are the "who wins, by
// roughly what factor" checks from the deliverable spec.
func TestPaperShapesHold(t *testing.T) {
	env := testEnv(t)
	acc := map[string]accTriple{}
	for _, db := range env.DBs {
		acc[db.Name()] = measureTriple(env, db.Name())
	}

	neta := acc["NetAcuity"]
	for _, other := range []string{"IP2Location-Lite", "MaxMind-GeoLite", "MaxMind-Paid"} {
		if neta.country <= acc[other].country {
			t.Errorf("NetAcuity country accuracy %.3f should lead %s (%.3f)",
				neta.country, other, acc[other].country)
		}
	}
	// MaxMind city coverage visibly partial; NetAcuity/IP2Location ~full.
	if acc["MaxMind-Paid"].cityCov > 0.8 || acc["MaxMind-GeoLite"].cityCov > 0.7 {
		t.Errorf("MaxMind city coverage too high: %.2f / %.2f",
			acc["MaxMind-Paid"].cityCov, acc["MaxMind-GeoLite"].cityCov)
	}
	if acc["NetAcuity"].cityCov < 0.95 || acc["IP2Location-Lite"].cityCov < 0.95 {
		t.Error("NetAcuity/IP2Location should have near-full city coverage")
	}
	// IP2Location is the least city-accurate.
	for _, other := range []string{"NetAcuity", "MaxMind-Paid", "MaxMind-GeoLite"} {
		if acc["IP2Location-Lite"].city >= acc[other].city {
			t.Errorf("IP2Location city accuracy %.3f should trail %s (%.3f)",
				acc["IP2Location-Lite"].city, other, acc[other].city)
		}
	}
}

type accTriple struct {
	country, city, cityCov float64
}

func measureTriple(env *Env, name string) accTriple {
	db := env.DB(name)
	var total, ctryAns, ctryOK, cityAns, within int
	for _, tg := range env.Targets {
		total++
		rec, ok := db.Lookup(tg.Addr)
		if !ok {
			continue
		}
		if rec.HasCountry() {
			ctryAns++
			if rec.Country == tg.Country {
				ctryOK++
			}
		}
		if rec.HasCity() {
			cityAns++
			if rec.Coord.WithinKm(tg.Truth, 40) {
				within++
			}
		}
	}
	return accTriple{
		country: frac(ctryOK, ctryAns),
		city:    frac(within, cityAns),
		cityCov: frac(cityAns, total),
	}
}

func frac(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestStabilityReport(t *testing.T) {
	if testing.Short() {
		t.Skip("rebuilds the pipeline twice")
	}
	cfg := DefaultConfig()
	cfg.World.ASes = 200
	cfg.Atlas.Probes = 400
	cfg.OneMsProbes = 500
	var buf bytes.Buffer
	if err := StabilityReport(context.Background(), &buf, cfg, []int64{11, 12}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, m := range []string{"seed", "NetA", "invariants"} {
		if !strings.Contains(out, m) {
			t.Errorf("stability output missing %q", m)
		}
	}
	if strings.Count(out, "\n") < 6 {
		t.Errorf("stability output too short:\n%s", out)
	}
}

// TestRunAllConcurrentMatchesSequential pins the determinism guarantee:
// with the engine parallel, RunAll buffers per-experiment output and
// emits it in registry order, so the stream is byte-identical to a
// one-worker run.
func TestRunAllConcurrentMatchesSequential(t *testing.T) {
	env := testEnv(t)
	ctx := context.Background()

	par.SetParallelism(1)
	var serial bytes.Buffer
	if err := RunAll(ctx, &serial, env); err != nil {
		t.Fatal(err)
	}

	par.SetParallelism(4)
	defer par.SetParallelism(0)
	var parallel bytes.Buffer
	if err := RunAll(ctx, &parallel, env); err != nil {
		t.Fatal(err)
	}

	if serial.String() != parallel.String() {
		// Find the first diverging line for a readable failure.
		sl, pl := strings.Split(serial.String(), "\n"), strings.Split(parallel.String(), "\n")
		for i := 0; i < len(sl) && i < len(pl); i++ {
			if sl[i] != pl[i] {
				t.Fatalf("outputs diverge at line %d:\n  serial:   %q\n  parallel: %q", i, sl[i], pl[i])
			}
		}
		t.Fatalf("outputs differ in length: %d vs %d bytes", serial.Len(), parallel.Len())
	}
}

// TestNewEnvSerialMatchesParallel builds testConfig's environment at one
// worker and at four. At one worker the build chains run one after
// another, so no two children of env.build overlap in time; at either
// count the databases, ground truth, targets and address lists are the
// same.
func TestNewEnvSerialMatchesParallel(t *testing.T) {
	defer par.SetParallelism(0)
	build := func(workers int) (*Env, obs.SpanSnapshot) {
		par.SetParallelism(workers)
		run := obs.NewRun("experiments-test")
		env, err := NewEnv(run.Context(context.Background()), testConfig())
		if err != nil {
			t.Fatal(err)
		}
		return env, run.Manifest().Stages
	}
	serial, stages := build(1)
	parallel, _ := build(4)

	if len(stages.Children) != 1 || stages.Children[0].Name != "env.build" {
		t.Fatalf("run has no single env.build stage: %+v", stages.Children)
	}
	kids := stages.Children[0].Children
	end := func(s obs.SpanSnapshot) time.Time {
		return s.Start.Add(time.Duration(math.Round(s.WallMs * float64(time.Millisecond))))
	}
	for i, a := range kids {
		for _, b := range kids[i+1:] {
			if a.Start.Before(end(b)) && b.Start.Before(end(a)) {
				t.Errorf("at one worker env.build children %s and %s overlap", a.Name, b.Name)
			}
		}
	}

	if len(serial.DBs) != len(parallel.DBs) {
		t.Fatalf("%d databases serial, %d parallel", len(serial.DBs), len(parallel.DBs))
	}
	for i, db := range serial.DBs {
		if db.Fingerprint() != parallel.DBs[i].Fingerprint() {
			t.Errorf("database %s differs between one and four workers", db.Name())
		}
	}
	for _, c := range []struct {
		name string
		s, p any
	}{
		{"GT", serial.GT.Entries, parallel.GT.Entries},
		{"Targets", serial.Targets, parallel.Targets},
		{"ArkAddrs", serial.ArkAddrs, parallel.ArkAddrs},
		{"OneMs", serial.OneMs.Entries, parallel.OneMs.Entries},
	} {
		if !reflect.DeepEqual(c.s, c.p) {
			t.Errorf("%s differs between one and four workers", c.name)
		}
	}
}

// TestTable1TiedDomainsInNameOrder gives DNS ground-truth domains equal
// counts and requires Table 1 to print the same bytes on every run, with
// tied domains in name order: the rows come from a map, whose iteration
// order Go randomizes.
func TestTable1TiedDomainsInNameOrder(t *testing.T) {
	env := *testEnv(t)
	env.DNSStats.PerDomainCounts = map[string]int{
		"cogentco.com": 900, "ntt.net": 300, "seabone.net": 140, "pnap.net": 140,
		"peak10.net": 23, "digitalwest.net": 23, "belwue.de": 23,
	}
	var first string
	for run := 0; run < 20; run++ {
		var buf bytes.Buffer
		if err := runTable1(context.Background(), &buf, &env); err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = buf.String()
		} else if buf.String() != first {
			t.Fatalf("run %d printed different bytes than run 0:\n%s\nvs\n%s", run, buf.String(), first)
		}
	}
	_, rows, _ := strings.Cut(first, "Per-domain DNS ground truth")
	rows, _, _ = strings.Cut(rows, "rDNS funnel")
	var got []string
	for _, line := range strings.Split(rows, "\n")[1:] {
		if f := strings.Fields(line); len(f) == 2 {
			got = append(got, f[0])
		}
	}
	want := []string{"cogentco.com", "ntt.net", "pnap.net", "seabone.net", "belwue.de", "digitalwest.net", "peak10.net"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("per-domain rows in order %v, want %v", got, want)
	}
}

// TestConfigJSONRoundTrip guards the run manifest's config record: the
// config must encode to JSON and decode back to the same value, or
// obs.Run.SetConfig drops it.
func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	b, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var back Config
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, cfg) {
		t.Errorf("config changed through JSON:\n got %+v\nwant %+v", back, cfg)
	}
}

// TestConfigHoldsNoHooks walks Config's type. A func or chan field
// cannot be encoded, and a field tagged json:"-" is left out, so either
// would leave the run manifest with a config that no longer reproduces
// the run.
func TestConfigHoldsNoHooks(t *testing.T) {
	seen := map[reflect.Type]bool{}
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Func, reflect.Chan:
			t.Errorf("%s is a %s", path, ty.Kind())
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Map:
			walk(path+"[key]", ty.Key())
			walk(path+"[]", ty.Elem())
		case reflect.Struct:
			if seen[ty] {
				return
			}
			seen[ty] = true
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				if f.Tag.Get("json") == "-" {
					t.Errorf("%s.%s is tagged json:\"-\"", path, f.Name)
				}
				walk(path+"."+f.Name, f.Type)
			}
		}
	}
	walk("Config", reflect.TypeOf(Config{}))
}
