package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"routergeo/internal/ipx"
)

// quickOptions runs at the facade's Quick() scale with short windows, so
// every workload and the traced replay finish in seconds.
func quickOptions(t *testing.T) options {
	o := defaultOptions(7, 400*time.Millisecond)
	o.cfg.World.ASes = 250
	o.cfg.Atlas.Probes = 600
	o.cfg.OneMsProbes = 900
	o.setupReps = 1
	o.publishEvery = 100 * time.Millisecond
	o.sideWindow = 300 * time.Millisecond
	o.workDir = t.TempDir()
	return o
}

func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range workloads {
		for _, trace := range []bool{false, true} {
			r := run(quickOptions(t), name, trace, "")
			line, err := r.resultLine()
			if err != nil {
				t.Fatal(err)
			}
			if r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d ops failed: %v", name, trace, r.Failed, r.Attempted, r.Failures)
			}
			var res struct {
				Correct bool
				Metrics map[string]struct{ Value float64 }
			}
			if err := json.Unmarshal(line, &res); err != nil {
				t.Fatal(err)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if !res.Correct || len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: correct=%v with %d metrics, want %d", name, trace, res.Correct, len(res.Metrics), len(defs))
			}
			for n, m := range res.Metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %v", name, trace, n, m.Value)
				}
			}
		}
	}
}

func TestLoadIsAPureFunctionOfTheSeed(t *testing.T) {
	ark := make([]ipx.Addr, 500)
	for i := range ark {
		ark[i] = ipx.Addr(0x0a000000 + i*7)
	}
	dbs := []string{"a", "b", "c", "d"}
	gen := func(seed int64) *load { return newLoad(seed, ark, dbs, 400, 3*time.Second) }
	a, b, c := gen(1), gen(1), gen(2)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed generated different traffic")
	}
	if bytes.Equal(a.bulk[0].body, c.bulk[0].body) || bytes.Equal(a.online[0].body, c.online[0].body) ||
		reflect.DeepEqual(a.due, c.due) || reflect.DeepEqual(a.epochs, c.epochs) {
		t.Error("different seeds generated identical bodies, schedule or epoch order")
	}
	for i := 1; i < len(a.epochs); i++ {
		if a.epochs[i] == a.epochs[i-1] {
			t.Fatalf("epoch %d follows itself at publish %d", a.epochs[i], i)
		}
	}
}

func TestRunAllDigestIgnoresOnlyTheOrderOfTiedDomains(t *testing.T) {
	stream := func(rows ...string) []byte {
		s := "table1\n\n" + perDomainHead + " (paper: ...):\n"
		for _, r := range rows {
			s += r + "\n"
		}
		return []byte(s + "rDNS funnel: ...\n")
	}
	a := runAllDigest(stream("  cogentco.com         717", "  pnap.net             140", "  seabone.net          140", "  belwue.de             12"))
	b := runAllDigest(stream("  cogentco.com         717", "  seabone.net          140", "  pnap.net             140", "  belwue.de             12"))
	if a != b {
		t.Error("tied domains in another order changed the digest")
	}
	for _, other := range [][]byte{
		stream("  cogentco.com         717", "  pnap.net             141", "  seabone.net          140", "  belwue.de             12"),
		stream("  cogentco.com         717", "  pnap.net             140", "  belwue.de             12"),
		stream("  cogentco.com         717", "  pnap.net             140", "  seabone.net          140", "  belwue.de             12", "  ntt.net                1"),
	} {
		if runAllDigest(other) == a {
			t.Errorf("a different list has the same digest:\n%s", other)
		}
	}
}

func TestBenchmarkJSONMatchesTheMetricTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, workloads)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, want %v", b.EndToEnd, endToEnd)
	}
	want := append([]metricDef(nil), perLayer...)
	sort.Slice(want, func(i, j int) bool { return want[i].Name < want[j].Name })
	if !reflect.DeepEqual(b.PerLayer, want) {
		t.Errorf("BENCHMARK.json per_layer differs from the traced run's table:\n got %v\nwant %v", b.PerLayer, want)
	}
}

func TestCompareRefusesDifferentMachines(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, s stamp) string {
		p := dir + "/" + name
		if err := appendRecord(p, &report{Workload: "study", Stamp: s, Metrics: []metric{{"op_ms", 1, "ms", 1}}}); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := write("a.jsonl", stamp{NProc: 2, GOMAXPROCS: 2, CPU: "x", Go: "go1"})
	b := write("b.jsonl", stamp{NProc: 1, GOMAXPROCS: 1, CPU: "x", Go: "go1"})
	var out, errs bytes.Buffer
	if code := compareMain([]string{a, b}, &out, &errs); code == 0 {
		t.Error("compare accepted result sets from different machines")
	}
	if code := compareMain([]string{"-force", a, b}, &out, &errs); code != 0 || !bytes.Contains(out.Bytes(), []byte("CROSS-MACHINE")) {
		t.Errorf("compare -force = %d, output %q", code, out.String())
	}
	if code := compareMain([]string{a, a}, &out, &errs); code != 0 {
		t.Errorf("compare of one machine's results = %d: %s", code, errs.String())
	}
}
