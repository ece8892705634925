// Command perfbench is the routergeo repository benchmark. It runs one of
// three workloads in-process, checks every output, and prints the run's
// metrics; the last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics.
//
//	bash perfbench/run.sh --workload study|evaluate|serve|all --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// replays the workloads with benchmark-side timers around each call into
// a layer and reports the per-layer metrics instead. `perfbench compare
// BASE HEAD` compares two JSON-lines result files written with --out.
// See README.md.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"routergeo/internal/experiments"
)

var workloads = []string{"study", "evaluate", "serve"}

// metricDef is one metric BENCHMARK.json declares.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd is what every --trace 0 run reports, whatever the workload.
// "op" is the workload's unit of work: one study op, one evaluate round,
// one serve bulk request.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_ms", "ms", "lower"},
	{"op_cpu_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer is what every --trace 1 run reports. A traced run replays all
// three workloads, so every layer is measured whichever workload is named.
var perLayer = func() []metricDef {
	ms := func(names ...string) []metricDef {
		out := make([]metricDef, len(names))
		for i, n := range names {
			out[i] = metricDef{n, "ms", "lower"}
		}
		return out
	}
	var d []metricDef
	d = append(d, ms("netsim.build_ms", "netsim.evolve_ms")...)
	d = append(d, metricDef{"netsim.nearest_router_us", "us", "lower"})
	d = append(d, ms("rdns.synthesize_ms", "ark.collect_ms")...)
	d = append(d, metricDef{"ark.traces", "count", "higher"})
	d = append(d, ms("atlas.deploy_ms", "atlas.builtins_ms", "atlas.deploy_1ms_ms", "atlas.builtins_1ms_ms")...)
	d = append(d, metricDef{"atlas.measurements", "count", "higher"})
	d = append(d, ms("groundtruth.dns_ms", "groundtruth.rtt_ms", "groundtruth.1ms_ms")...)
	d = append(d, metricDef{"groundtruth.dns_yield", "fraction", "higher"},
		metricDef{"groundtruth.rtt_yield", "fraction", "higher"})
	d = append(d, ms("vendors.feed_ms")...)
	for _, v := range vendorNames {
		d = append(d, ms("vendors.build."+v+"_ms")...)
	}
	d = append(d, ms("vendors.build_at_ms", "core.targets_ms")...)
	d = append(d, metricDef{"study.overlap", "ratio", "higher"})
	for _, id := range experimentIDs {
		d = append(d, ms("experiments."+id+"_ms")...)
	}
	d = append(d, ms("core.accuracy_ms", "core.coverage_ms", "core.agreement_all_ms",
		"core.accuracy_by_country_ms", "httpapi.client_batch_ms", "httpapi.handler_remote_ms")...)
	d = append(d, metricDef{"httpapi.client_allocs_per_addr", "allocs/addr", "lower"})
	d = append(d, ms("httpapi.handler_bulk_ms", "httpapi.handler_online_p50_ms", "httpapi.handler_online_p99_ms")...)
	d = append(d, metricDef{"httpapi.resp_bytes_per_addr", "B/addr", "lower"},
		metricDef{"httpapi.allocs_per_req", "allocs/req", "lower"},
		metricDef{"geodb.batch_ns_per_addr", "ns/addr", "lower"},
		metricDef{"geodb.hit_ratio", "fraction", "higher"})
	d = append(d, ms("snapshot.write_ms", "snapshot.open_ms", "httpapi.swap_ms", "loadgen.late_ms")...)
	d = append(d, metricDef{"loadgen.bulk_sent", "count", "higher"},
		metricDef{"loadgen.online_sent", "count", "higher"},
		metricDef{"obs.spans", "count", "lower"},
		metricDef{"obs.manifest_kb", "KB", "lower"})
	d = append(d, ms("traced.op_ms")...)
	d = append(d, metricDef{"traced.overhead_pct", "%", "lower"})
	return d
}()

// vendorNames are the four databases' names as metric-name components.
var vendorNames = []string{"ip2location-lite", "maxmind-geolite", "maxmind-paid", "netacuity"}

// experimentIDs are the paper artifacts RunAll produces, in its order.
var experimentIDs = func() []string {
	var ids []string
	for _, e := range experiments.All() {
		ids = append(ids, e.ID)
	}
	return ids
}()

// options are one run's settings. Everything but the flags is fixed here;
// the tests shrink the world and the windows.
type options struct {
	cfg     experiments.Config
	seed    int64
	seconds time.Duration
	// setupReps is how many times set-up runs; setup_s is their median.
	setupReps int
	// onlineRate is the serve online leg's mean request rate, per second.
	onlineRate float64
	// publishEvery is the serve publisher's period.
	publishEvery time.Duration
	// sideWindow is how long a traced run serves when serve is not the
	// named workload.
	sideWindow time.Duration
	// workDir holds the serve workload's snapshot directory.
	workDir string
}

func defaultOptions(seed int64, seconds time.Duration) options {
	cfg := experiments.DefaultConfig()
	cfg.World.Seed = seed
	return options{
		cfg:          cfg,
		seed:         seed,
		seconds:      seconds,
		setupReps:    3,
		onlineRate:   400,
		publishEvery: time.Second,
		sideWindow:   2 * time.Second,
		workDir:      ".bench_build",
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: study, evaluate, serve, or all")
	seed := fs.Int64("seed", 1, "workload seed: the world seed and the traffic generator's seed")
	seconds := fs.Float64("seconds", 10, "length of the measured phase, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	out := fs.String("out", "", "append each full result record, machine stamp included, to this JSON-lines file")
	spans := fs.String("spans", "", "with --trace 1, write the spans to this JSON-lines file at the end")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloads
	}
	for _, n := range names {
		if !contains(workloads, n) {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q (want study, evaluate, serve or all)\n", n)
			return 2
		}
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace takes 0 or 1")
		return 2
	}
	o := defaultOptions(*seed, time.Duration(*seconds*float64(time.Second)))
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	code := 0
	for _, n := range names {
		r := run(o, n, *trace == 1, *spans)
		line, err := r.resultLine()
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		r.print(stdout)
		if *out != "" {
			if err := appendRecord(*out, r); err != nil {
				fmt.Fprintln(stderr, "perfbench:", err)
				code = 1
			}
		}
		fmt.Fprintln(stdout, string(line))
		if r.Failed > 0 {
			code = 1
		}
	}
	return code
}

// run executes one workload, untraced or traced, and returns its report.
func run(o options, name string, trace bool, spansPath string) *report {
	r := &report{Workload: name, Trace: trace, Stamp: newStamp(o.seed)}
	if trace {
		tr := newTracer()
		runTraced(o, name, r, tr)
		r.addLayers(tr)
		if spansPath != "" {
			if err := tr.writeSpans(spansPath); err != nil {
				r.fail("write spans: %v", err)
			}
		}
		return r
	}
	switch name {
	case "study":
		runStudy(o, r)
	case "evaluate":
		runEvaluate(o, r)
	case "serve":
		runServe(o, r)
	}
	r.add("peak_rss_mb", "MB", peakRSSMB(), 1)
	return r
}

// report is one run's outcome. It is safe for concurrent use.
type report struct {
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Stamp     stamp             `json:"stamp"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Digests   map[string]string `json:"digests,omitempty"`
	Metrics   []metric          `json:"metrics"`
	// Notes are the named per-workload figures the generic metrics
	// summarize (study_s, remote_ms, online_p99_ms, ...).
	Notes []metric `json:"notes,omitempty"`

	mu sync.Mutex
}

// metric is one measured value with its unit and sample count.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

func (r *report) add(name, unit string, v float64, n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Metrics = append(r.Metrics, metric{name, v, unit, n})
}

func (r *report) note(name, unit string, v float64, n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Notes = append(r.Notes, metric{name, v, unit, n})
}

// attempt counts one op.
func (r *report) attempt() {
	r.mu.Lock()
	r.Attempted++
	r.mu.Unlock()
}

// fail counts one failed op; the first reasons are kept for the report.
func (r *report) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// digest records an output digest. Every later op must reproduce the
// first value recorded under the same name; a mismatch is a failure.
func (r *report) digest(name, sum string) {
	r.mu.Lock()
	old, ok := r.Digests[name]
	if !ok {
		if r.Digests == nil {
			r.Digests = map[string]string{}
		}
		r.Digests[name] = sum
	}
	r.mu.Unlock()
	if ok && old != sum {
		r.fail("%s digest %.12s differs from the first op's %.12s", name, sum, old)
	}
}

func (r *report) print(w io.Writer) {
	mode := 0
	if r.Trace {
		mode = 1
	}
	fmt.Fprintf(w, "# perfbench workload=%s trace=%d %s\n", r.Workload, mode, r.Stamp)
	for _, m := range append(append([]metric(nil), r.Metrics...), r.Notes...) {
		fmt.Fprintf(w, "%-9s %-34s %14.4f %-11s n=%d\n", r.Workload, m.Name, m.Value, m.Unit, m.N)
	}
	ratio := 0.0
	if r.Attempted > 0 {
		ratio = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "%-9s %-34s %14.4f %-11s n=%d\n", r.Workload, "fail_ratio", ratio, "fraction", r.Attempted)
	names := make([]string, 0, len(r.Digests))
	for n := range r.Digests {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-9s digest %-27s sha256:%s\n", r.Workload, n, r.Digests[n])
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "%-9s FAIL %s\n", r.Workload, f)
	}
}

// resultLine is the final JSON line: exactly the metrics BENCHMARK.json
// declares for this mode, each with its value and unit.
func (r *report) resultLine() ([]byte, error) {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]valueUnit, len(defs))
	for _, d := range defs {
		v, ok := r.lookup(d.Name)
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("metric %s not measured", d.Name)
			v = 0
		}
		ms[d.Name] = valueUnit{v, d.Unit}
	}
	attempted := max(r.Attempted, 1)
	return json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{r.Failed == 0, attempted, r.Failed, ms})
}

func (r *report) lookup(name string) (float64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

func appendRecord(path string, r *report) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stamp identifies where and from what a result was measured.
type stamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func newStamp(seed int64) stamp {
	s := stamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        runtime.GOARCH,
		Go:         runtime.Version(),
		Commit:     commit,
		Seed:       seed,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				s.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return s
}

// commit is the source commit, set at link time by run.sh
// (-ldflags "-X main.commit=...").
var commit = "unknown"

// machine is the part of a stamp two comparable result sets must share.
func (s stamp) machine() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s", s.NProc, s.GOMAXPROCS, s.CPU, s.Go)
}

func (s stamp) String() string {
	return fmt.Sprintf("%s commit=%s seed=%d", s.machine(), s.Commit, s.Seed)
}

// compareMain prints, per workload and metric, the median and quartiles
// of two result sets. It refuses sets measured on different machines
// unless -force is given, and then flags every line.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	force := fs.Bool("force", false, "compare even when the machine stamps differ")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare [-force] BASE.jsonl HEAD.jsonl")
		return 2
	}
	var sets [2][]*report
	for i := range sets {
		rs, err := readRecords(fs.Arg(i))
		if err != nil {
			fmt.Fprintln(stderr, "perfbench compare:", err)
			return 2
		}
		sets[i] = rs
	}
	machines := [2]map[string]bool{{}, {}}
	commits := [2]map[string]bool{{}, {}}
	for i, rs := range sets {
		for _, r := range rs {
			machines[i][r.Stamp.machine()] = true
			commits[i][r.Stamp.Commit] = true
		}
	}
	flagLine := ""
	if len(machines[0]) != 1 || len(machines[1]) != 1 || keys(machines[0])[0] != keys(machines[1])[0] {
		fmt.Fprintf(stderr, "perfbench compare: machine stamps differ\n  base: %s\n  head: %s\n",
			strings.Join(keys(machines[0]), " | "), strings.Join(keys(machines[1]), " | "))
		if !*force {
			return 2
		}
		flagLine = "  !! CROSS-MACHINE"
	}
	fmt.Fprintf(stdout, "# base commits %s; head commits %s\n",
		strings.Join(keys(commits[0]), ","), strings.Join(keys(commits[1]), ","))
	type key struct{ workload, name, unit string }
	var order []key
	vals := map[key]*[2][]float64{}
	for i, rs := range sets {
		for _, r := range rs {
			for _, m := range append(append([]metric(nil), r.Metrics...), r.Notes...) {
				k := key{r.Workload, m.Name, m.Unit}
				if vals[k] == nil {
					vals[k] = &[2][]float64{}
					order = append(order, k)
				}
				vals[k][i] = append(vals[k][i], m.Value)
			}
		}
	}
	for _, k := range order {
		v := vals[k]
		b, h := median(v[0]), median(v[1])
		delta := "n/a"
		if len(v[0]) > 0 && len(v[1]) > 0 && b != 0 {
			delta = strconv.FormatFloat(100*(h/b-1), 'f', 1, 64) + "%"
		}
		fmt.Fprintf(stdout, "%-9s %-34s %-11s base %12.4f [%.4f, %.4f] n=%d  head %12.4f [%.4f, %.4f] n=%d  %s%s\n",
			k.workload, k.name, k.unit,
			b, quantile(v[0], 0.25), quantile(v[0], 0.75), len(v[0]),
			h, quantile(v[1], 0.25), quantile(v[1], 0.75), len(v[1]), delta, flagLine)
	}
	return 0
}

func readRecords(path string) ([]*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []*report
	for i, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		r := &report{}
		if err := json.Unmarshal(line, r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return out, nil
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// quantile is the linearly interpolated q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// settle collects the garbage earlier ops left, outside any timed region,
// so each op starts from the heap a fresh process would have and does not
// pay for its predecessor's collection.
func settle() { runtime.GC() }

// peakRSSMB is the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // Maxrss stays 0 on failure
	return float64(ru.Maxrss) / 1024
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
