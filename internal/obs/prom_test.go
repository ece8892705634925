package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"routergeo/internal/obs/promlint"
)

func TestPromSanitize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"client.outage.generation_flips", "client_outage_generation_flips"},
		{"db.maxmind-lite.hits", "db_maxmind_lite_hits"},
		{"HTTP.Requests", "http_requests"},
		{"7layer.db", "7layer_db"},
		{"weird key/with spaces", "weird_key_with_spaces"},
		{"", "_"},
		{"-", "_"},
		{"42", "42"},
	}
	for _, c := range cases {
		if got := promSanitize(c.in); got != c.want {
			t.Errorf("promSanitize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestPromName(t *testing.T) {
	cases := []struct{ prefix, in, want string }{
		{"routergeo", "client.outage.generation_flips", "routergeo_client_outage_generation_flips"},
		{"routergeo", "7layer.db-hits", "routergeo_7layer_db_hits"},
		{"", "7layer.db-hits", "_7layer_db_hits"},
		{"My-App", "x", "my_app_x"},
	}
	for _, c := range cases {
		if got := PromName(c.prefix, c.in); got != c.want {
			t.Errorf("PromName(%q, %q) = %q, want %q", c.prefix, c.in, got, c.want)
		}
	}
}

// TestWritePrometheusGolden pins the full exposition of a known registry
// byte for byte: name mangling, HELP/TYPE lines, sorted family order
// (counters, gauges, histograms; each sorted by dotted name) and the
// histogram's cumulative le math.
func TestWritePrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("http.requests").Add(42)
	reg.SetHelp("http.requests", "HTTP requests served.")
	reg.Counter("client.outage.generation_flips").Add(3)
	reg.Gauge("generation.current").Set(7)
	h := reg.Histogram("http.latency_ms", []float64{5, 50, 500})
	for _, v := range []float64{1, 10, 100, 1000} {
		h.Observe(v)
	}

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg, ""); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	want := strings.Join([]string{
		`# HELP routergeo_client_outage_generation_flips_total routergeo counter (auto-registered)`,
		`# TYPE routergeo_client_outage_generation_flips_total counter`,
		`routergeo_client_outage_generation_flips_total 3`,
		`# HELP routergeo_http_requests_total HTTP requests served.`,
		`# TYPE routergeo_http_requests_total counter`,
		`routergeo_http_requests_total 42`,
		`# HELP routergeo_generation_current routergeo gauge (auto-registered)`,
		`# TYPE routergeo_generation_current gauge`,
		`routergeo_generation_current 7`,
		`# HELP routergeo_http_latency_ms routergeo histogram (auto-registered)`,
		`# TYPE routergeo_http_latency_ms histogram`,
		`routergeo_http_latency_ms_bucket{le="5"} 1`,
		`routergeo_http_latency_ms_bucket{le="50"} 2`,
		`routergeo_http_latency_ms_bucket{le="500"} 3`,
		`routergeo_http_latency_ms_bucket{le="+Inf"} 4`,
		`routergeo_http_latency_ms_sum 1111`,
		`routergeo_http_latency_ms_count 4`,
	}, "\n") + "\n"
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	fams, err := promlint.LintExposition(strings.NewReader(want))
	if err != nil {
		t.Fatalf("golden output fails lint: %v", err)
	}
	hist := fams["routergeo_http_latency_ms"]
	if hist == nil || hist.Type != "histogram" || hist.Samples != 6 {
		t.Errorf("histogram family = %+v, want 6 samples of type histogram", hist)
	}
}

// TestWritePrometheusDeterministic renders the same registry repeatedly
// and demands identical bytes — satellite #2's pin on sorted snapshot
// iteration.
func TestWritePrometheusDeterministic(t *testing.T) {
	reg := NewRegistry()
	for _, n := range []string{"z.last", "a.first", "m.mid", "b.second", "y.tail"} {
		reg.Counter(n).Inc()
		reg.Gauge(n + ".g").Set(1)
	}
	reg.Histogram("lat.a", []float64{1, 2}).Observe(1)
	reg.Histogram("lat.b", []float64{1, 2}).Observe(2)

	var first bytes.Buffer
	if err := WritePrometheus(&first, reg, "routergeo"); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	for i := 0; i < 20; i++ {
		var again bytes.Buffer
		if err := WritePrometheus(&again, reg, "routergeo"); err != nil {
			t.Fatalf("WritePrometheus: %v", err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatalf("render %d differs from the first:\n%s\nvs\n%s", i, again.String(), first.String())
		}
	}
}

func TestWritePrometheusEmptyRegistry(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, NewRegistry(), ""); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if buf.Len() != 0 {
		t.Errorf("empty registry rendered %q, want no output", buf.String())
	}
	fams, err := promlint.LintExposition(&buf)
	if err != nil || len(fams) != 0 {
		t.Errorf("lint of empty exposition: fams=%v err=%v", fams, err)
	}
}

// TestWritePrometheusZeroObservationHistogram: a registered histogram
// with no observations must still expose a complete, valid family.
func TestWritePrometheusZeroObservationHistogram(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("empty.hist", []float64{1, 2})
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg, ""); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	want := strings.Join([]string{
		`# HELP routergeo_empty_hist routergeo histogram (auto-registered)`,
		`# TYPE routergeo_empty_hist histogram`,
		`routergeo_empty_hist_bucket{le="1"} 0`,
		`routergeo_empty_hist_bucket{le="2"} 0`,
		`routergeo_empty_hist_bucket{le="+Inf"} 0`,
		`routergeo_empty_hist_sum 0`,
		`routergeo_empty_hist_count 0`,
	}, "\n") + "\n"
	if got := buf.String(); got != want {
		t.Errorf("zero-observation histogram:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if _, err := promlint.LintExposition(strings.NewReader(want)); err != nil {
		t.Errorf("zero-observation histogram fails lint: %v", err)
	}
}

// TestWritePrometheusOverflowOnly: observations past the largest bound
// land only in the +Inf bucket.
func TestWritePrometheusOverflowOnly(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("of.hist", []float64{1}).Observe(99)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg, ""); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	for _, line := range []string{
		`routergeo_of_hist_bucket{le="1"} 0`,
		`routergeo_of_hist_bucket{le="+Inf"} 1`,
		`routergeo_of_hist_count 1`,
	} {
		if !strings.Contains(buf.String(), line+"\n") {
			t.Errorf("output missing %q:\n%s", line, buf.String())
		}
	}
}

// TestWritePrometheusCollision: two dotted names that sanitize to the
// same exposition name get deterministic _2 suffixes, sorted dotted name
// first.
func TestWritePrometheusCollision(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a-b").Add(1)
	reg.Counter("a.b").Add(2)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg, ""); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "routergeo_a_b_total 1\n") {
		t.Errorf(`want "a-b" (sorted first) to own routergeo_a_b_total:\n%s`, out)
	}
	if !strings.Contains(out, "routergeo_a_b_total_2 2\n") {
		t.Errorf(`want "a.b" renamed to routergeo_a_b_total_2:\n%s`, out)
	}
	if _, err := promlint.LintExposition(strings.NewReader(out)); err != nil {
		t.Errorf("collision output fails lint: %v", err)
	}
}

// TestWriteProcessMetricsLint: the ambient collectors must produce a
// strictly valid exposition with the canonical names present.
func TestWriteProcessMetricsLint(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProcessMetrics(&buf); err != nil {
		t.Fatalf("WriteProcessMetrics: %v", err)
	}
	fams, err := promlint.LintExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("process metrics fail lint: %v\n%s", err, buf.String())
	}
	for _, name := range []string{
		"routergeo_build_info",
		"process_cpu_seconds_total",
		"go_goroutines",
		"go_gc_cycles_total",
		"go_gc_pauses_seconds",
	} {
		if fams[name] == nil {
			t.Errorf("process metrics missing family %s:\n%s", name, buf.String())
		}
	}
	if f := fams["go_gc_pauses_seconds"]; f != nil && f.Type != "histogram" {
		t.Errorf("go_gc_pauses_seconds type = %s, want histogram", f.Type)
	}
}

// TestPromHandlerNegotiation: /metrics serves the text exposition by
// default and the legacy JSON snapshot when the client asks for JSON
// exclusively.
func TestPromHandlerNegotiation(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("http.requests").Add(5)
	h := PromHandler(reg)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != PromContentType {
		t.Errorf("default Content-Type = %q, want %q", ct, PromContentType)
	}
	fams, err := promlint.LintExposition(rec.Body)
	if err != nil {
		t.Fatalf("default exposition fails lint: %v", err)
	}
	if fams["routergeo_http_requests_total"] == nil || fams["routergeo_build_info"] == nil {
		t.Errorf("exposition missing registry or ambient families: %v", famNames(fams))
	}

	rec = httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "application/json")
	h.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("JSON Content-Type = %q", ct)
	}
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("JSON body does not decode as a snapshot: %v", err)
	}
	if snap.Counters["http.requests"] != 5 {
		t.Errorf("JSON snapshot counters = %v", snap.Counters)
	}

	// A scraper's Accept (text/plain preferred, */* fallback) stays on
	// the exposition.
	rec = httptest.NewRecorder()
	req = httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "application/json;q=0.5, */*;q=0.1")
	h.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); ct != PromContentType {
		t.Errorf("mixed Accept Content-Type = %q, want exposition", ct)
	}
}

func famNames(fams map[string]*promlint.ExpositionMetric) []string {
	out := make([]string, 0, len(fams))
	for n := range fams {
		out = append(out, n)
	}
	return out
}
