package routergeo

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"routergeo/internal/experiments"
	"routergeo/internal/geodb/dbload"
	"routergeo/internal/geodb/snapshot"
)

var (
	studyOnce sync.Once
	study     *Study
	studyErr  error
)

// testStudy builds one Quick study shared by every test in this file.
func testStudy(t *testing.T) *Study {
	t.Helper()
	studyOnce.Do(func() {
		study, studyErr = New(Quick(), WithSeed(3))
	})
	if studyErr != nil {
		t.Fatal(studyErr)
	}
	return study
}

func TestStudyBuilds(t *testing.T) {
	s := testStudy(t)
	st := s.WorldStats()
	if st.Routers == 0 || st.Interfaces == 0 || st.ArkAddresses == 0 || st.GroundTruth == 0 {
		t.Fatalf("degenerate study: %+v", st)
	}
	dns, rtt, merged := s.GroundTruthSizes()
	if dns == 0 || rtt == 0 || merged < dns || merged < rtt {
		t.Fatalf("ground-truth sizes wrong: %d/%d/%d", dns, rtt, merged)
	}
}

func TestDatabasesListed(t *testing.T) {
	s := testStudy(t)
	got := s.Databases()
	want := []string{"IP2Location-Lite", "MaxMind-GeoLite", "MaxMind-Paid", "NetAcuity"}
	if len(got) != len(want) {
		t.Fatalf("Databases = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Databases[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestLookupAndTruth(t *testing.T) {
	s := testStudy(t)
	addrs := s.ArkAddresses()
	if len(addrs) == 0 {
		t.Fatal("no Ark addresses")
	}
	ip := addrs[0]
	truth, ok := s.TrueLocation(ip)
	if !ok || truth.Country == "" || truth.City == "" {
		t.Fatalf("TrueLocation(%s) = %+v, %v", ip, truth, ok)
	}
	// NetAcuity has full coverage; the answer must exist.
	loc, ok := s.Lookup("NetAcuity", ip)
	if !ok || loc.Country == "" {
		t.Fatalf("Lookup(NetAcuity, %s) = %+v, %v", ip, loc, ok)
	}
	// Garbage inputs fail cleanly.
	if _, ok := s.Lookup("NetAcuity", "not-an-ip"); ok {
		t.Error("bad IP should miss")
	}
	if _, ok := s.TrueLocation("355.1.1.1"); ok {
		t.Error("bad IP should have no truth")
	}
}

func TestAccuracySummaries(t *testing.T) {
	s := testStudy(t)
	neta := s.Accuracy("NetAcuity")
	if neta.Targets == 0 {
		t.Fatal("no targets")
	}
	if neta.CityCoverage < 0.9 {
		t.Errorf("NetAcuity city coverage = %v", neta.CityCoverage)
	}
	ip2 := s.Accuracy("IP2Location-Lite")
	if neta.CountryAccuracy <= ip2.CountryAccuracy {
		t.Errorf("NetAcuity (%v) should beat IP2Location (%v) at country level",
			neta.CountryAccuracy, ip2.CountryAccuracy)
	}
	byRegion := s.AccuracyByRegion("NetAcuity")
	if len(byRegion) < 3 {
		t.Errorf("only %d regions in breakdown", len(byRegion))
	}
	totalRegional := 0
	for _, a := range byRegion {
		totalRegional += a.Targets
	}
	if totalRegional != neta.Targets {
		t.Errorf("regional targets %d != total %d", totalRegional, neta.Targets)
	}
}

func TestGroundTruthEntries(t *testing.T) {
	s := testStudy(t)
	gt := s.GroundTruth()
	methods := map[string]int{}
	for _, e := range gt {
		if e.Country == "" || e.IP == "" {
			t.Fatalf("malformed entry %+v", e)
		}
		methods[e.Method]++
		if got := s.MethodOf(e.IP); got != e.Method {
			t.Fatalf("MethodOf(%s) = %q, want %q", e.IP, got, e.Method)
		}
	}
	if methods["DNS-based"] == 0 || methods["RTT-proximity"] == 0 {
		t.Errorf("method mix degenerate: %v", methods)
	}
	if s.MethodOf("203.0.113.99") != "" {
		t.Error("non-GT address should have no method")
	}
}

func TestDisagreement(t *testing.T) {
	s := testStudy(t)
	frac, n := s.Disagreement("IP2Location-Lite", "NetAcuity")
	if n == 0 {
		t.Fatal("no commonly answered addresses")
	}
	if frac <= 0 || frac >= 1 {
		t.Errorf("disagreement fraction = %v", frac)
	}
	// The same-family MaxMind pair must disagree less than cross-vendor
	// pairs (Figure 1's core finding).
	mm, _ := s.Disagreement("MaxMind-GeoLite", "MaxMind-Paid")
	if mm >= frac {
		t.Errorf("MaxMind pair disagreement (%v) should be below cross-vendor (%v)", mm, frac)
	}
}

func TestRecommendations(t *testing.T) {
	s := testStudy(t)
	recs := s.Recommendations()
	if len(recs) < 3 {
		t.Fatalf("only %d recommendations", len(recs))
	}
	joined := strings.Join(recs, "\n")
	if !strings.Contains(joined, "NetAcuity") {
		t.Error("NetAcuity should appear in the recommendations")
	}
}

func TestRunExperimentAndIDs(t *testing.T) {
	s := testStudy(t)
	ids := ExperimentIDs()
	if len(ids) != 14 {
		t.Fatalf("got %d experiments: %v", len(ids), ids)
	}
	var buf bytes.Buffer
	if err := s.RunExperiment("table1", &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "DNS-based") {
		t.Errorf("table1 output unexpected: %q", buf.String()[:80])
	}
	if err := s.RunExperiment("nope", &buf); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestSamplePaths(t *testing.T) {
	s := testStudy(t)
	paths := s.SamplePaths(5, 7)
	if len(paths) != 5 {
		t.Fatalf("got %d paths", len(paths))
	}
	for _, p := range paths {
		if p.From == "" || p.To == "" {
			t.Fatalf("unlabelled path %+v", p)
		}
		for _, hop := range p.Hops {
			if _, ok := s.TrueLocation(hop); !ok {
				t.Fatalf("path hop %s unknown to the world", hop)
			}
		}
	}
	// Determinism.
	again := s.SamplePaths(5, 7)
	for i := range paths {
		if len(again[i].Hops) != len(paths[i].Hops) {
			t.Fatal("SamplePaths not deterministic")
		}
	}
}

func TestOperators(t *testing.T) {
	s := testStudy(t)
	ops := s.Operators(false)
	var cogent *ASInfo
	for i := range ops {
		if ops[i].Domain == "cogentco.com" {
			cogent = &ops[i]
		}
	}
	if cogent == nil {
		t.Fatal("cogent missing from operators")
	}
	if !cogent.Transit || cogent.ASN != 174 {
		t.Errorf("cogent = %+v", cogent)
	}
	withIfaces := s.Operators(true)
	total := 0
	for _, op := range withIfaces {
		total += len(op.Interfaces)
	}
	if total != s.WorldStats().Interfaces {
		t.Errorf("operator interfaces %d != world %d", total, s.WorldStats().Interfaces)
	}
}

func TestExportDatabases(t *testing.T) {
	s := testStudy(t)
	dir := t.TempDir()
	paths, err := s.ExportDatabases(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 4 {
		t.Fatalf("exported %d files", len(paths))
	}
	for i, p := range paths {
		if filepath.Dir(p) != dir {
			t.Errorf("export escaped directory: %s", p)
		}
		if filepath.Ext(p) != snapshot.Ext {
			t.Errorf("export %s is not a snapshot", p)
		}
		l, err := dbload.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		mem := s.env.DBs[i]
		if l.Format != dbload.Snap || l.DB.Fingerprint() != mem.Fingerprint() {
			t.Errorf("%s reloads as %s with fingerprint %x, want snap with %x",
				p, l.Format, l.DB.Fingerprint(), mem.Fingerprint())
		}
		if got, want := l.DB.Meta().BuildEpoch, experiments.SnapshotEpoch(3); got != want {
			t.Errorf("%s build epoch = %d, want %d", p, got, want)
		}
		l.Close()
	}
	// The bytes are a pure function of the study: a second export matches.
	again, err := s.ExportDatabases(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := range paths {
		b1, err1 := os.ReadFile(paths[i])
		b2, err2 := os.ReadFile(again[i])
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !bytes.Equal(b1, b2) {
			t.Errorf("%s: second export wrote different bytes", filepath.Base(paths[i]))
		}
	}
}
