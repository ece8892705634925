package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"routergeo/internal/ark"
	"routergeo/internal/atlas"
	"routergeo/internal/core"
	"routergeo/internal/experiments"
	"routergeo/internal/geodb"
	"routergeo/internal/groundtruth"
	"routergeo/internal/hints"
	"routergeo/internal/netsim"
	"routergeo/internal/obs"
	"routergeo/internal/rdns"
	"routergeo/internal/vendors"
)

// studyOp is one study op: build the default environment and run every
// paper artifact into a buffer, as a default routergeo run does. It
// returns the environment and the SHA-256 of the artifact stream.
func studyOp(ctx context.Context, cfg experiments.Config) (*experiments.Env, string, error) {
	env, err := experiments.NewEnv(ctx, cfg)
	if err != nil {
		return nil, "", fmt.Errorf("build environment: %w", err)
	}
	var buf bytes.Buffer
	if err := experiments.RunAll(ctx, &buf, env); err != nil {
		return nil, "", fmt.Errorf("run artifacts: %w", err)
	}
	return env, runAllDigest(buf.Bytes()), nil
}

// perDomainHead starts table1's per-domain DNS ground-truth list.
const perDomainHead = "Per-domain DNS ground truth"

// runAllDigest is the SHA-256 of a RunAll stream with one known
// nondeterminism of the program taken out: table1 sorts its per-domain
// list by count alone, starting from map order, so domains with equal
// counts come out in any order. The rows of that list are put in (count
// descending, row ascending) order before hashing; which rows there are,
// and every other byte, must still match.
func runAllDigest(out []byte) string {
	lines := bytes.SplitAfter(out, []byte("\n"))
	for i, l := range lines {
		if !bytes.HasPrefix(l, []byte(perDomainHead)) {
			continue
		}
		j := i + 1
		for j < len(lines) && bytes.HasPrefix(lines[j], []byte("  ")) {
			j++
		}
		rows := lines[i+1 : j]
		count := func(row []byte) int {
			f := bytes.Fields(row)
			n, _ := strconv.Atoi(string(f[len(f)-1])) // a malformed row sorts as 0 and still hashes as is
			return n
		}
		sort.SliceStable(rows, func(a, b int) bool {
			if ca, cb := count(rows[a]), count(rows[b]); ca != cb {
				return ca > cb
			}
			return bytes.Compare(rows[a], rows[b]) < 0
		})
		break
	}
	return sha(bytes.Join(lines, nil))
}

// runStudy: set-up is a reference op whose digest every op must match,
// repeated setupReps times; the measured phase repeats the op.
func runStudy(o options, r *report) {
	ctx := context.Background()
	var setup []float64
	for i := 0; i < o.setupReps; i++ {
		settle()
		t0 := time.Now()
		_, d, err := studyOp(ctx, o.cfg)
		r.attempt()
		if err != nil {
			r.fail("setup: %v", err)
			return
		}
		setup = append(setup, time.Since(t0).Seconds())
		r.digest("runall", d)
	}
	r.add("setup_s", "s", median(setup), len(setup))
	var wall, cpu []float64
	deadline := time.Now().Add(o.seconds)
	for first := true; first || time.Now().Before(deadline); first = false {
		settle()
		t0, c0 := time.Now(), processCPU()
		_, d, err := studyOp(ctx, o.cfg)
		r.attempt()
		if err != nil {
			r.fail("study op: %v", err)
			continue
		}
		wall = append(wall, time.Since(t0).Seconds())
		cpu = append(cpu, (processCPU() - c0).Seconds())
		r.digest("runall", d)
	}
	r.add("op_ms", "ms", 1000*median(wall), len(wall))
	r.add("op_cpu_ms", "ms", 1000*median(cpu), len(cpu))
	r.note("study_s", "s", median(wall), len(wall))
	r.note("study_cpu_s", "s", median(cpu), len(cpu))
}

// tracer keeps benchmark-side spans in memory. A nil or switched-off
// tracer records nothing, so untraced code paths share the calls.
type tracer struct {
	on     atomic.Bool
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	values map[string]float64
}

type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	Self   float64 `json:"self_ms"`
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), values: map[string]float64{}}
	t.on.Store(true)
	return t
}

func (t *tracer) active() bool { return t != nil && t.on.Load() }

// begin opens a span under parent (0 for none) and returns its id, or 0
// when the tracer is off.
func (t *tracer) begin(name string, parent int) int {
	if !t.active() {
		return 0
	}
	now := ms(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := ms(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// time runs fn inside a span.
func (t *tracer) time(name string, parent int, fn func()) {
	id := t.begin(name, parent)
	fn()
	t.end(id)
}

// set records a per-layer value measured as a count or ratio.
func (t *tracer) set(name string, v float64) {
	if !t.active() {
		return
	}
	t.mu.Lock()
	t.values[name] = v
	t.mu.Unlock()
}

// selfTimes computes each span's self time — its duration minus the part
// its children cover — and returns them by span name.
func (t *tracer) selfTimes() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string][]float64{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.End < 0 {
			continue
		}
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		covered, reach := 0.0, s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
		out[s.Name] = append(out[s.Name], s.Self)
	}
	return out
}

func (t *tracer) writeSpans(path string) error {
	t.selfTimes()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// addLayers turns the tracer's spans and values into the per-layer
// metrics: a name ending in _ms is the median self time of the spans
// named by its stem (_p50_ms and _p99_ms take that quantile instead).
// Each span name's total self time is added as a note: the layer profile.
func (r *report) addLayers(t *tracer) {
	self := t.selfTimes()
	for _, d := range perLayer {
		t.mu.Lock()
		v, ok := t.values[d.Name]
		t.mu.Unlock()
		if ok {
			r.add(d.Name, d.Unit, v, 1)
			continue
		}
		stem, q := strings.TrimSuffix(d.Name, "_ms"), 0.5
		if s, ok := strings.CutSuffix(stem, "_p99"); ok {
			stem, q = s, 0.99
		} else if s, ok := strings.CutSuffix(stem, "_p50"); ok {
			stem = s
		}
		if xs := self[stem]; len(xs) > 0 && stem != d.Name {
			r.add(d.Name, d.Unit, quantile(xs, q), len(xs))
		}
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		total := 0.0
		for _, x := range self[n] {
			total += x
		}
		r.note("self."+n+"_ms", "ms", total, len(self[n]))
	}
}

// replayEnv builds the same environment experiments.NewEnv does, calling
// the layers one at a time in NewEnv's order, each inside a span, and
// assembles the Env from their results. It also times World.NearestRouter
// over both fleets' probes, a probe outside the build itself.
func replayEnv(ctx context.Context, cfg experiments.Config, t *tracer, parent int) (*experiments.Env, error) {
	e := &experiments.Env{Cfg: cfg}
	var err error
	t.time("netsim.build", parent, func() { e.W, err = netsim.Build(cfg.World) })
	if err != nil {
		return nil, fmt.Errorf("build world: %w", err)
	}
	w := e.W
	t.time("rdns.synthesize", parent, func() {
		e.Dict = hints.NewDictionary(w.Gaz)
		e.Dec = hints.NewDecoder(e.Dict)
		e.Zone = rdns.Synthesize(w, e.Dict, cfg.RDNS)
	})
	t.time("ark.collect", parent, func() { e.Coll = ark.Collect(ctx, w, cfg.Ark) })
	t.set("ark.traces", float64(e.Coll.Traces))
	t.time("atlas.deploy", parent, func() { e.Fleet = atlas.Deploy(w, cfg.Atlas) })
	t.time("atlas.builtins", parent, func() { e.Measurements = e.Fleet.RunBuiltins(cfg.Atlas.Seed + 1) })
	fleet2Cfg := cfg.Atlas
	fleet2Cfg.Probes = cfg.OneMsProbes
	fleet2Cfg.Seed = cfg.Atlas.Seed + 1000
	var fleet2 *atlas.Fleet
	var ms2 []atlas.Measurement
	t.time("atlas.deploy_1ms", parent, func() { fleet2 = atlas.Deploy(w, fleet2Cfg) })
	t.time("atlas.builtins_1ms", parent, func() { ms2 = fleet2.RunBuiltins(fleet2Cfg.Seed + 1) })
	t.set("atlas.measurements", float64(len(e.Measurements)+len(ms2)))
	if t.active() {
		calls := 0
		start := time.Now()
		t.time("netsim.nearest_router", 0, func() {
			for _, f := range []*atlas.Fleet{e.Fleet, fleet2} {
				for _, p := range f.Probes {
					w.NearestRouter(p.TrueCoord, p.TrueCity.Country)
					calls++
				}
			}
		})
		if calls > 0 {
			t.set("netsim.nearest_router_us", float64(time.Since(start).Microseconds())/float64(calls))
		}
	}
	for _, id := range e.Coll.Interfaces {
		e.ArkAddrs = append(e.ArkAddrs, w.Interfaces[id].Addr)
	}
	t.time("groundtruth.dns", parent, func() { e.DNS, e.DNSStats = groundtruth.BuildDNS(ctx, w, e.Coll, e.Zone, e.Dec) })
	t.time("groundtruth.rtt", parent, func() {
		e.RTTDS, e.RTTStats = groundtruth.BuildRTT(ctx, w, e.Fleet, e.Measurements, cfg.RTT)
	})
	if e.DNSStats.ArkInterfaces > 0 {
		t.set("groundtruth.dns_yield", float64(e.DNSStats.Decoded)/float64(e.DNSStats.ArkInterfaces))
	}
	if e.RTTStats.CandidateAddrs > 0 {
		t.set("groundtruth.rtt_yield", float64(e.RTTDS.Len())/float64(e.RTTStats.CandidateAddrs))
	}
	t.time("groundtruth.merge", parent, func() { e.GT = groundtruth.Merge(e.DNS, e.RTTDS) })
	t.time("core.targets", parent, func() { e.Targets = core.TargetsFromDataset(w, e.GT) })
	t.time("netsim.evolve", parent, func() {
		e.Evo = w.Evolve(rand.New(rand.NewSource(cfg.EvolutionSeed)), netsim.DefaultEvolutionParams())
	})
	t.time("groundtruth.1ms", parent, func() {
		oneMsCfg := groundtruth.RTTConfig{ThresholdMs: 1.0, CentroidKm: cfg.RTT.CentroidKm, NearbyMaxKm: 200}
		oneMsBase, _ := groundtruth.BuildRTT(ctx, w, fleet2, ms2, oneMsCfg)
		e.OneMs = groundtruth.Build1ms(w, oneMsBase, e.Evo, 10, 0.7, cfg.EvolutionSeed+1)
	})
	t.time("vendors.feed", parent, func() { e.Feed = vendors.BuildFeed(w, vendors.DefaultFeedConfig()) })
	in := vendors.Inputs{World: w, Feed: e.Feed, Zone: e.Zone, Decoder: e.Dec}
	for _, p := range vendors.AllParams() {
		var db *geodb.DB
		t.time("vendors.build."+strings.ToLower(p.Name), parent, func() { db, err = vendors.Build(in, p) })
		if err != nil {
			return nil, fmt.Errorf("build vendors: %w", err)
		}
		e.DBs = append(e.DBs, db)
	}
	return e, nil
}

// replayRunAll writes what experiments.RunAll writes, running the paper
// artifacts one at a time, each inside a span.
func replayRunAll(ctx context.Context, w io.Writer, env *experiments.Env, t *tracer, parent int) error {
	for _, e := range experiments.All() {
		fmt.Fprintf(w, "\n================ %s — %s ================\n", e.ID, e.Title)
		var err error
		t.time("experiments."+e.ID, parent, func() { err = experiments.RunOne(ctx, e, w, env) })
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return nil
}

// tracedStudyOp is the traced study op: the serial replay and the serial
// artifact replay, under one "study.replay" span.
func tracedStudyOp(ctx context.Context, cfg experiments.Config, t *tracer) (*experiments.Env, string, error) {
	root := t.begin("study.replay", 0)
	defer t.end(root)
	env, err := replayEnv(ctx, cfg, t, root)
	if err != nil {
		return nil, "", err
	}
	var buf bytes.Buffer
	if err := replayRunAll(ctx, &buf, env, t, root); err != nil {
		return nil, "", fmt.Errorf("run artifacts: %w", err)
	}
	return env, runAllDigest(buf.Bytes()), nil
}

// runTraced replays every workload under the tracer. The named workload
// runs for the whole measured phase, alternating untraced and traced ops
// so the tracing overhead shows; the other two run once.
func runTraced(o options, name string, r *report, t *tracer) {
	ctx := context.Background()
	var untraced, traced []float64

	t.on.Store(false)
	t0 := time.Now()
	_, ref, err := studyOp(ctx, o.cfg)
	r.attempt()
	if err != nil {
		r.fail("reference study op: %v", err)
		return
	}
	refWall := time.Since(t0)
	r.digest("runall", ref)
	t.on.Store(true)
	t1 := time.Now()
	env, d, err := tracedStudyOp(ctx, o.cfg, t)
	r.attempt()
	if err != nil {
		r.fail("traced study op: %v", err)
		return
	}
	replayWall := time.Since(t1)
	r.digest("runall", d)
	// The serial replay's wall time over the concurrent build's: what
	// NewEnv's concurrency buys on this machine.
	t.set("study.overlap", replayWall.Seconds()/refWall.Seconds())
	if name == "study" {
		untraced = append(untraced, ms(refWall))
		traced = append(traced, ms(replayWall))
		deadline := time.Now().Add(o.seconds)
		for time.Now().Before(deadline) {
			t.on.Store(false)
			t0 := time.Now()
			_, d, err := studyOp(ctx, o.cfg)
			r.attempt()
			if err != nil {
				r.fail("study op: %v", err)
				continue
			}
			untraced = append(untraced, ms(time.Since(t0)))
			r.digest("runall", d)
			t.on.Store(true)
			t0 = time.Now()
			_, d, err = tracedStudyOp(ctx, o.cfg, t)
			r.attempt()
			if err != nil {
				r.fail("traced study op: %v", err)
				continue
			}
			traced = append(traced, ms(time.Since(t0)))
			r.digest("runall", d)
		}
	}

	ev, err := newEvalFixture(ctx, env, r, t)
	if err != nil {
		r.fail("evaluate set-up: %v", err)
		return
	}
	if name == "evaluate" {
		deadline := time.Now().Add(o.seconds)
		for first := true; first || time.Now().Before(deadline); first = false {
			t.on.Store(false)
			untraced = append(untraced, ms(ev.round(ctx, r, t).total()))
			t.on.Store(true)
			traced = append(traced, ms(ev.round(ctx, r, t).total()))
			ev.layers(ctx, r, t)
		}
	} else {
		ev.round(ctx, r, t)
		ev.layers(ctx, r, t)
	}
	ev.close()

	sv, err := newServeFixture(ctx, o, env, r, t)
	if err != nil {
		r.fail("serve set-up: %v", err)
		return
	}
	if name == "serve" {
		t.on.Store(false)
		untraced = append(untraced, median(sv.window(ctx, o, r, o.seconds/2).bulk))
		t.on.Store(true)
		traced = append(traced, median(sv.window(ctx, o, r, o.seconds/2).bulk))
	} else {
		sv.window(ctx, o, r, o.sideWindow)
	}
	sv.batchKernel()
	sv.close()

	obsOp(ctx, o, r, t)

	r.add("traced.op_ms", "ms", median(traced), len(traced))
	if u := median(untraced); u > 0 {
		r.add("traced.overhead_pct", "%", 100*(median(traced)/u-1), len(traced)+len(untraced))
	}
}

// obsOp runs one study op under a run manifest, as routergeo does, and
// records the manifest's span count and size.
func obsOp(ctx context.Context, o options, r *report, t *tracer) {
	rec := obs.NewRun("routergeo")
	rec.SetSeed(o.seed)
	// routergeo logs this error and carries on: the config holds a hook
	// func that JSON cannot encode, so the manifest goes without it.
	_ = rec.SetConfig(o.cfg)
	_, d, err := studyOp(rec.Context(ctx), o.cfg)
	r.attempt()
	if err != nil {
		r.fail("manifest study op: %v", err)
		return
	}
	r.digest("runall", d)
	m := rec.Manifest()
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		r.fail("encode manifest: %v", err)
		return
	}
	t.set("obs.spans", float64(countSpans(m.Stages)))
	t.set("obs.manifest_kb", float64(len(data)+1)/1024)
}

func countSpans(s obs.SpanSnapshot) int {
	n := 1
	for _, c := range s.Children {
		n += countSpans(c)
	}
	return n
}
