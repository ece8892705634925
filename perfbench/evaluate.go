package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"routergeo/internal/core"
	"routergeo/internal/experiments"
	"routergeo/internal/geodb"
	"routergeo/internal/geodb/httpapi"
)

const (
	// epochMonths is the churn between the drift sweep's epochs and
	// between the serve workload's snapshot epochs.
	epochMonths = 4
	// spanHeader carries a client-side span id to the traced handler.
	spanHeader = "X-Perfbench-Span"
)

// runEvaluate: set-up builds one environment (a study op, whose digest
// later rounds must match) and serves its databases on loopback; the
// measured phase repeats rounds of ops (a), (b) and (c).
func runEvaluate(o options, r *report) {
	ctx := context.Background()
	var setup []float64
	var fx *evalFixture
	for i := 0; i < o.setupReps; i++ {
		if fx != nil {
			fx.close()
			fx = nil
		}
		settle()
		t0 := time.Now()
		env, d, err := studyOp(ctx, o.cfg)
		r.attempt()
		if err != nil {
			r.fail("setup: %v", err)
			return
		}
		r.digest("runall", d)
		fx, err = newEvalFixture(ctx, env, r, nil)
		if err != nil {
			r.fail("setup: %v", err)
			return
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	defer fx.close()
	r.add("setup_s", "s", median(setup), len(setup))
	var rounds, cpu, a, b, c []float64
	settle()
	deadline := time.Now().Add(o.seconds)
	for first := true; first || time.Now().Before(deadline); first = false {
		c0 := processCPU()
		rt := fx.round(ctx, r, nil)
		cpu = append(cpu, ms(processCPU()-c0))
		rounds = append(rounds, ms(rt.total()))
		a, b, c = append(a, ms(rt.a)), append(b, ms(rt.b)), append(c, ms(rt.c))
	}
	r.add("op_ms", "ms", median(rounds), len(rounds))
	r.add("op_cpu_ms", "ms", median(cpu), len(cpu))
	r.note("artifacts_ms", "ms", median(a), len(a))
	r.note("drift_ms", "ms", median(b), len(b))
	r.note("remote_ms", "ms", median(c), len(c))
}

// evalFixture is one built environment with its databases served on
// loopback.
type evalFixture struct {
	env *experiments.Env
	srv *loopback
}

// newEvalFixture records the local core sweep as the digest every remote
// sweep must reproduce, then starts the server.
func newEvalFixture(ctx context.Context, env *experiments.Env, r *report, t *tracer) (*evalFixture, error) {
	var local []sweepResult
	for _, db := range env.DBs {
		local = append(local, sweep(ctx, db, env))
	}
	d, err := jsonSHA(local)
	if err != nil {
		return nil, err
	}
	r.digest("remote", d)
	h := traceHandler(httpapi.NewHandler(env.DBs), t, func(*http.Request) string { return "httpapi.handler_remote" })
	srv, err := startLoopback(h)
	if err != nil {
		return nil, err
	}
	return &evalFixture{env: env, srv: srv}, nil
}

func (f *evalFixture) close() {
	f.srv.close()
	http.DefaultClient.CloseIdleConnections()
}

type roundTimes struct{ a, b, c time.Duration }

func (rt roundTimes) total() time.Duration { return rt.a + rt.b + rt.c }

// round runs ops (a) RunAll, (b) the 3-epoch drift sweep and (c) the
// remote sweep back to back. Traced, (a) is the serial artifact replay.
func (f *evalFixture) round(ctx context.Context, r *report, t *tracer) roundTimes {
	var rt roundTimes
	var buf bytes.Buffer
	t0 := time.Now()
	var err error
	if t.active() {
		err = replayRunAll(ctx, &buf, f.env, t, 0)
	} else {
		err = experiments.RunAll(ctx, &buf, f.env)
	}
	rt.a = time.Since(t0)
	r.attempt()
	if err != nil {
		r.fail("artifacts: %v", err)
	} else {
		r.digest("runall", runAllDigest(buf.Bytes()))
	}

	buf.Reset()
	t0 = time.Now()
	err = experiments.Longitudinal(ctx, &buf, f.env, 3, epochMonths)
	rt.b = time.Since(t0)
	r.attempt()
	if err != nil {
		r.fail("drift sweep: %v", err)
	} else {
		r.digest("drift", sha(buf.Bytes()))
	}

	m0 := mallocs()
	t0 = time.Now()
	d, n, err := f.remote(ctx)
	rt.c = time.Since(t0)
	if n > 0 {
		t.set("httpapi.client_allocs_per_addr", float64(mallocs()-m0)/float64(n))
	}
	r.attempt()
	if err != nil {
		r.fail("remote sweep: %v", err)
	} else {
		r.digest("remote", d)
	}
	return rt
}

// remote is the routergeo -remote shape: per database, a fresh
// RemoteProvider scores accuracy over the targets and coverage over the
// Ark addresses. It returns the results' digest and the address count.
func (f *evalFixture) remote(ctx context.Context) (string, int, error) {
	var res []sweepResult
	n := 0
	for _, db := range f.env.DBs {
		p, err := httpapi.NewRemoteProvider(httpapi.NewClient(f.srv.url, httpapi.WithDatabase(db.Name())))
		if err != nil {
			return "", n, err
		}
		res = append(res, sweep(ctx, p, f.env))
		n += len(f.env.Targets) + len(f.env.ArkAddrs)
		if err := p.Err(); err != nil {
			return "", n, fmt.Errorf("%s: %w", db.Name(), err)
		}
		if k := p.Tainted(); k > 0 {
			return "", n, fmt.Errorf("%s: %d lookups tainted", db.Name(), k)
		}
	}
	d, err := jsonSHA(res)
	return d, n, err
}

// layers times the evaluate layers the rounds reach only from inside the
// program: the core sweeps, BuildDBsAt per epoch, and the client's batch
// lookups on its default chunk size.
func (f *evalFixture) layers(ctx context.Context, r *report, t *tracer) {
	provs := f.env.Providers()
	t.time("core.accuracy", 0, func() {
		for _, p := range provs {
			core.MeasureAccuracy(ctx, p, f.env.Targets)
		}
	})
	t.time("core.coverage", 0, func() {
		for _, p := range provs {
			core.MeasureCoverage(ctx, p, f.env.ArkAddrs)
		}
	})
	t.time("core.agreement_all", 0, func() { core.CountryAgreementAll(ctx, provs, f.env.ArkAddrs) })
	t.time("core.accuracy_by_country", 0, func() {
		for _, p := range provs {
			core.AccuracyByCountry(ctx, p, f.env.Targets)
		}
	})
	for k := 1; k <= 2; k++ {
		var err error
		t.time("vendors.build_at", 0, func() { _, err = f.env.BuildDBsAt(ctx, float64(k*epochMonths)) })
		if err != nil {
			r.fail("build databases at epoch %d: %v", k, err)
		}
	}
	ips := make([]string, 0, len(f.env.Targets)+len(f.env.ArkAddrs))
	for _, tg := range f.env.Targets {
		ips = append(ips, tg.Addr.String())
	}
	for _, a := range f.env.ArkAddrs {
		ips = append(ips, a.String())
	}
	for _, db := range f.env.DBs {
		c := httpapi.NewClient(f.srv.url, httpapi.WithDatabase(db.Name()))
		for lo := 0; lo < len(ips); lo += httpapi.DefaultClientMaxBatch {
			hi := min(lo+httpapi.DefaultClientMaxBatch, len(ips))
			var err error
			t.time("httpapi.client_batch", 0, func() { _, err = c.BatchLookup(ctx, ips[lo:hi]) })
			if err != nil {
				r.fail("client batch lookup: %v", err)
			}
		}
	}
}

// sweepResult is everything one database's -remote sweep observes, in a
// form whose bytes are equal exactly when the results are.
type sweepResult struct {
	DB                                     string
	Total, CountryAnswered, CountryCorrect int
	CityAnswered, Within40Km               int
	ErrorPoints                            []float64
	Coverage                               core.Coverage
}

func sweep(ctx context.Context, p geodb.Provider, env *experiments.Env) sweepResult {
	acc := core.MeasureAccuracy(ctx, p, env.Targets)
	var pts []float64
	if acc.ErrorCDF != nil {
		pts = acc.ErrorCDF.Points()
	}
	return sweepResult{p.Name(), acc.Total, acc.CountryAnswered, acc.CountryCorrect,
		acc.CityAnswered, acc.Within40Km, pts, core.MeasureCoverage(ctx, p, env.ArkAddrs)}
}

func jsonSHA(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return sha(b), nil
}

// traceHandler times every request inside h under a span named by name,
// parented to the client-side span the request names in spanHeader.
func traceHandler(h http.Handler, t *tracer, name func(*http.Request) string) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !t.active() {
			h.ServeHTTP(w, req)
			return
		}
		parent, _ := strconv.Atoi(req.Header.Get(spanHeader)) // absent: a root span
		id := t.begin(name(req), parent)
		h.ServeHTTP(w, req)
		t.end(id)
	})
}

// loopback is an HTTP server on 127.0.0.1 owned by the benchmark.
type loopback struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func startLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns ErrServerClosed once close runs
	}()
	return l, nil
}

// close stops the server and waits for its accept loop to return.
func (l *loopback) close() {
	_ = l.srv.Close() // closing listeners and connections cannot fail usefully here
	<-l.done
}
