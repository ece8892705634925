package obs

import (
	"strings"
	"testing"

	"routergeo/internal/obs/promlint"
)

// The exposition linter lives in promlint, which only tests import. Its
// own tests stay here, beside the writer whose output it checks.

// TestLintExpositionAccepts: well-formed expositions parse, including
// comments, timestamps, escapes and special float spellings.
func TestLintExpositionAccepts(t *testing.T) {
	const in = `# a free comment the parser ignores
# HELP up Whether the scrape target is up.
# TYPE up gauge
up 1

# HELP reqs_total Requests with an escaped help \\ line\nsecond.
# TYPE reqs_total counter
reqs_total{path="/v2/lookup",status="200"} 10 1723180000000
reqs_total{path="/v2/lookup",status="500"} 2
reqs_total{path="with \"quotes\" and \\ slash and \n newline"} 1

# TYPE odd gauge
odd NaN
odd{edge="inf"} +Inf
odd{edge="neginf"} -Inf

# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.1"} 1
lat_seconds_bucket{le="1"} 3
lat_seconds_bucket{le="+Inf"} 4
lat_seconds_sum 2.5
lat_seconds_count 4
`
	fams, err := promlint.LintExposition(strings.NewReader(in))
	if err != nil {
		t.Fatalf("LintExposition: %v", err)
	}
	if len(fams) != 4 {
		t.Fatalf("families = %v, want 4", famNames(fams))
	}
	if f := fams["reqs_total"]; f.Type != "counter" || f.Samples != 3 || !strings.Contains(f.Help, "escaped") {
		t.Errorf("reqs_total = %+v", f)
	}
	if f := fams["lat_seconds"]; f.Type != "histogram" || f.Samples != 5 {
		t.Errorf("lat_seconds = %+v", f)
	}
	if f := fams["odd"]; f.Samples != 3 {
		t.Errorf("odd = %+v", f)
	}
}

// TestLintExpositionUntyped: bare samples with no HELP/TYPE are legal
// and default to untyped.
func TestLintExpositionUntyped(t *testing.T) {
	fams, err := promlint.LintExposition(strings.NewReader("plain_sample 42\n"))
	if err != nil {
		t.Fatalf("LintExposition: %v", err)
	}
	if f := fams["plain_sample"]; f == nil || f.Type != "untyped" {
		t.Errorf("plain_sample = %+v, want untyped", f)
	}
}

// TestLintExpositionRejects: every malformation the strict parser must
// refuse, with the reason we expect in the error.
func TestLintExpositionRejects(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		wantErr string
	}{
		{
			"duplicate series",
			"a 1\na 2\n",
			"duplicate series",
		},
		{
			"duplicate labeled series",
			`a{x="1",y="2"} 1` + "\n" + `a{y="2",x="1"} 2` + "\n",
			"duplicate series",
		},
		{
			"interleaved families",
			"a 1\nb 1\na 2\n",
			"reopened",
		},
		{
			"type after samples",
			"a 1\n# TYPE a counter\n",
			"after its samples",
		},
		{
			"duplicate type",
			"# TYPE a counter\n# TYPE a counter\na 1\n",
			"duplicate TYPE",
		},
		{
			"duplicate help",
			"# HELP a x\n# HELP a y\na 1\n",
			"duplicate HELP",
		},
		{
			"empty help",
			"# HELP a\na 1\n",
			"empty HELP",
		},
		{
			"unknown type",
			"# TYPE a carrots\na 1\n",
			"unknown TYPE",
		},
		{
			"illegal metric name",
			"9lives 1\n",
			"illegal metric name",
		},
		{
			"illegal label name",
			`a{9x="1"} 1` + "\n",
			"illegal label name",
		},
		{
			"colon in label name",
			`a{x:y="1"} 1` + "\n",
			"illegal label name",
		},
		{
			"unquoted label value",
			"a{x=1} 1\n",
			"not quoted",
		},
		{
			"bad escape",
			`a{x="\t"} 1` + "\n",
			"bad escape",
		},
		{
			"unterminated label value",
			`a{x="open} 1` + "\n",
			"unterminated",
		},
		{
			"unterminated label set",
			`a{x="1" 1` + "\n",
			"unterminated label set",
		},
		{
			"duplicate label",
			`a{x="1",x="2"} 1` + "\n",
			"duplicate label",
		},
		{
			"missing value",
			"a\n",
			"needs a name and a value",
		},
		{
			"bad value",
			"a pickles\n",
			"bad value",
		},
		{
			"bad timestamp",
			"a 1 yesterday\n",
			"bad timestamp",
		},
		{
			"histogram missing inf",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
			"missing +Inf",
		},
		{
			"histogram inf count mismatch",
			"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n",
			"!= _count",
		},
		{
			"histogram not cumulative",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
			"not cumulative",
		},
		{
			"histogram missing sum",
			"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n",
			"missing _sum or _count",
		},
		{
			"histogram no buckets",
			"# TYPE h histogram\nh_sum 1\nh_count 1\n",
			"no buckets",
		},
		{
			"histogram bare sample",
			"# TYPE h histogram\nh 1\n",
			"bare sample",
		},
		{
			"bucket without le",
			"# TYPE h histogram\nh_bucket 1\n",
			"without le",
		},
		{
			"unparseable le",
			"# TYPE h histogram\nh_bucket{le=\"wide\"} 1\n",
			"unparseable le",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := promlint.LintExposition(strings.NewReader(c.in))
			if err == nil {
				t.Fatalf("accepted malformed input:\n%s", c.in)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error = %q, want it to mention %q", err, c.wantErr)
			}
		})
	}
}

// TestLintExpositionHistogramSuffixFamilies: _sum/_count/_bucket only
// fold into a family that declared itself histogram (or summary); for
// anything else they are independent metrics.
func TestLintExpositionHistogramSuffixFamilies(t *testing.T) {
	const in = `# TYPE x_count counter
x_count 5
`
	fams, err := promlint.LintExposition(strings.NewReader(in))
	if err != nil {
		t.Fatalf("LintExposition: %v", err)
	}
	if f := fams["x_count"]; f == nil || f.Type != "counter" {
		t.Errorf("x_count should stand alone as a counter, got %+v", f)
	}
}
