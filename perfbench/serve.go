package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"routergeo/internal/experiments"
	"routergeo/internal/geodb"
	"routergeo/internal/geodb/httpapi"
	"routergeo/internal/geodb/snapshot"
	"routergeo/internal/ipx"
)

const (
	// legHeader names the load leg a request belongs to, for the traced
	// handler's span names.
	legHeader = "X-Perfbench-Leg"

	bulkBodies   = 8
	bulkSize     = 8192
	onlineBodies = 256
	onlineSize   = 16
	// epochChain is how many publishes the seeded epoch order holds.
	epochChain = 1000

	buildEpoch0     = 1_500_000_000
	secondsPerMonth = 30 * 86400
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// runServe: set-up builds one environment, its databases at three epochs
// and a snapshot directory served on loopback; the measured phase is one
// load window with the bulk leg, the online leg and the publisher.
func runServe(o options, r *report) {
	ctx := context.Background()
	var setup []float64
	var fx *serveFixture
	for i := 0; i < o.setupReps; i++ {
		if fx != nil {
			fx.close()
			fx = nil
		}
		settle()
		t0 := time.Now()
		env, err := experiments.NewEnv(ctx, o.cfg)
		r.attempt()
		if err != nil {
			r.fail("setup: build environment: %v", err)
			return
		}
		fx, err = newServeFixture(ctx, o, env, r, nil)
		if err != nil {
			r.fail("setup: %v", err)
			return
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	defer fx.close()
	r.add("setup_s", "s", median(setup), len(setup))
	settle()
	st := fx.window(ctx, o, r, o.seconds)
	n := len(st.bulk)
	r.add("op_ms", "ms", median(st.bulk), n)
	r.add("op_cpu_ms", "ms", ms(st.cpu)/float64(max(n, 1)), n)
	r.note("bulk_addrs_per_s", "addr/s", float64(st.bulkAddrs)/st.elapsed.Seconds(), n)
	r.note("online_p50_ms", "ms", quantile(st.online, 0.5), len(st.online))
	r.note("online_p99_ms", "ms", quantile(st.online, 0.99), len(st.online))
	r.note("reload_ms", "ms", median(st.reload), len(st.reload))
	r.note("loadgen.late_p99_ms", "ms", quantile(st.late, 0.99), len(st.late))
}

// request is one pre-built /v2/lookup body and the addresses in it.
type request struct {
	db    string // "" asks every database
	addrs []ipx.Addr
	body  []byte
}

// load is the serve workload's traffic, a pure function of the seed and
// the address list.
type load struct {
	bulk   []request       // 8192 addresses each, pinned to one database, rotating over them
	online []request       // 16 addresses each, all databases
	due    []time.Duration // online leg: when each request is due, from the window start
	epochs []int           // the publisher's epoch order; no epoch follows itself
}

// newLoad draws ¾ of the addresses from the Ark set (mostly hits) and ¼
// uniformly (mostly misses). The online schedule is Poisson at rate per
// second over window.
func newLoad(seed int64, ark []ipx.Addr, dbs []string, rate float64, window time.Duration) *load {
	rng := rand.New(rand.NewSource(seed))
	mk := func(db string, n int) request {
		q := request{db: db, addrs: make([]ipx.Addr, n)}
		b := []byte(`{"ips":[`)
		for i := range q.addrs {
			a := ipx.Addr(rng.Uint32())
			if rng.Intn(4) < 3 {
				a = ark[rng.Intn(len(ark))]
			}
			q.addrs[i] = a
			if i > 0 {
				b = append(b, ',')
			}
			b = append(append(append(b, '"'), a.String()...), '"')
		}
		b = append(b, ']')
		if db != "" {
			b = append(append(append(b, `,"db":"`...), db...), '"')
		}
		q.body = append(b, '}')
		return q
	}
	l := &load{}
	for i := 0; i < bulkBodies; i++ {
		l.bulk = append(l.bulk, mk(dbs[i%len(dbs)], bulkSize))
	}
	for i := 0; i < onlineBodies; i++ {
		l.online = append(l.online, mk("", onlineSize))
	}
	for at := time.Duration(0); ; {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= window {
			break
		}
		l.due = append(l.due, at)
	}
	cur := 0
	for i := 0; i < epochChain; i++ {
		cur = (cur + 1 + rng.Intn(2)) % 3
		l.epochs = append(l.epochs, cur)
	}
	return l
}

// serveFixture is a snapshot directory served through a reloading
// handler on loopback, with the databases of every epoch it publishes.
type serveFixture struct {
	epochs [3][]*geodb.DB
	gens   map[string]int // set-level generation id → epoch
	ref    map[[2]int]uint32
	dir    string
	h      *httpapi.Handler
	h2     *httpapi.Handler // an unloaded handler the traced run times Swap on
	rl     *httpapi.Reloader
	srv    *loopback
	ld     *load
	next   int // index of the next publish in ld.epochs
	t      *tracer

	bulkC, onlineC *http.Client

	mu    sync.Mutex
	swaps []swapEvent
}

type swapEvent struct {
	start, end time.Time
	epoch      int
}

// newServeFixture publishes every epoch once, ending on epoch 0. That
// learns each epoch's generation id and checks every bulk body's answer
// against the epoch's databases, keeping a CRC of each as the reference
// the measured phase compares with.
func newServeFixture(ctx context.Context, o options, env *experiments.Env, r *report, t *tracer) (*serveFixture, error) {
	f := &serveFixture{
		gens:    map[string]int{},
		ref:     map[[2]int]uint32{},
		t:       t,
		bulkC:   legClient(),
		onlineC: legClient(),
		h:       httpapi.NewHandler(nil),
		h2:      httpapi.NewHandler(nil),
	}
	f.epochs[0] = env.DBs
	for k := 1; k < 3; k++ {
		dbs, err := env.BuildDBsAt(ctx, float64(k*epochMonths))
		if err != nil {
			return nil, err
		}
		f.epochs[k] = dbs
	}
	dir, err := os.MkdirTemp(o.workDir, "serve-")
	if err != nil {
		return nil, err
	}
	f.dir = dir
	f.rl = httpapi.NewReloader(f.h, dir, time.Hour, nil)
	f.srv, err = startLoopback(traceHandler(f.h, t, func(req *http.Request) string {
		return "httpapi.handler_" + req.Header.Get(legHeader)
	}))
	if err != nil {
		f.close()
		return nil, err
	}
	names := make([]string, len(env.DBs))
	for i, db := range env.DBs {
		names[i] = db.Name()
	}
	f.ld = newLoad(o.seed, env.ArkAddrs, names, o.onlineRate, max(o.seconds, o.sideWindow))
	var buf bytes.Buffer
	for _, k := range []int{1, 2, 0} {
		if _, err := f.publish(k); err != nil {
			f.close()
			return nil, err
		}
		gen := f.h.Generation()
		if old, ok := f.gens[gen]; ok && old != k {
			f.close()
			return nil, fmt.Errorf("epochs %d and %d share generation %s", old, k, gen)
		}
		f.gens[gen] = k
		for i, q := range f.ld.bulk {
			g, err := f.post(f.bulkC, &buf, q.body, "bulk")
			if err == nil && g != gen {
				err = fmt.Errorf("answered by generation %s, want %s", g, gen)
			}
			var resp httpapi.BatchResponse
			if err == nil {
				err = json.Unmarshal(buf.Bytes(), &resp)
			}
			if err == nil {
				err = checkEntries(resp, q, f.epochs[k])
			}
			if err != nil {
				f.close()
				return nil, fmt.Errorf("epoch %d, bulk body %d: %w", k, i, err)
			}
			f.ref[[2]int{k, i}] = crc32.Checksum(buf.Bytes(), castagnoli)
		}
	}
	return f, nil
}

func legClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

func (f *serveFixture) close() {
	if f.srv != nil {
		f.srv.close()
	}
	f.bulkC.CloseIdleConnections()
	f.onlineC.CloseIdleConnections()
	f.h.Swap(nil) // releases the last generation's snapshot mappings
	if f.dir != "" {
		_ = os.RemoveAll(f.dir) // a leftover directory under .bench_build is harmless
	}
}

func (f *serveFixture) path(db string) string {
	return filepath.Join(f.dir, strings.ToLower(db)+snapshot.Ext)
}

// publish writes epoch k's four snapshots with temp-and-rename, as
// geosnap does, then rescans. A rescan that does not swap is an error.
// It returns the rescan's wall time.
func (f *serveFixture) publish(k int) (time.Duration, error) {
	id := f.t.begin("snapshot.write", 0)
	for _, db := range f.epochs[k] {
		meta := snapshot.Meta{BuildEpoch: buildEpoch0 + int64(k*epochMonths*secondsPerMonth), SourceFormat: "study"}
		if err := snapshot.WriteFile(f.path(db.Name()), db, meta); err != nil {
			f.t.end(id)
			return 0, err
		}
	}
	f.t.end(id)
	// The swap is recorded, open-ended, before the rescan starts: a
	// request it answers may be checked before Rescan returns.
	f.mu.Lock()
	t0 := time.Now()
	f.swaps = append(f.swaps, swapEvent{start: t0, epoch: k})
	ev := len(f.swaps) - 1
	f.mu.Unlock()
	swapped, err := f.rl.Rescan(false)
	d := time.Since(t0)
	f.mu.Lock()
	f.swaps[ev].end = time.Now()
	f.mu.Unlock()
	if err != nil {
		return d, err
	}
	if !swapped {
		return d, fmt.Errorf("rescan after publishing epoch %d did not swap", k)
	}
	if f.t.active() {
		for _, db := range f.epochs[k] {
			var h *snapshot.Handle
			f.t.time("snapshot.open", 0, func() { h, err = snapshot.Open(f.path(db.Name())) })
			if err != nil {
				return d, err
			}
			_ = h.Close() // only opened to be timed
		}
		f.t.time("httpapi.swap", 0, func() { f.h2.Swap(f.epochs[k]) })
	}
	return d, nil
}

// post sends one /v2/lookup body, leaving the answer in buf, and returns
// the generation that answered.
func (f *serveFixture) post(c *http.Client, buf *bytes.Buffer, body []byte, leg string) (string, error) {
	req, err := http.NewRequest(http.MethodPost, f.srv.url+"/v2/lookup", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(legHeader, leg)
	id := f.t.begin("loadgen."+leg, 0)
	defer f.t.end(id)
	if id != 0 {
		req.Header.Set(spanHeader, strconv.Itoa(id))
	}
	resp, err := c.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d: %.200s", resp.StatusCode, buf.Bytes())
	}
	return resp.Header.Get(httpapi.GenerationHeader), nil
}

type serveStats struct {
	mu                         sync.Mutex
	bulk, online, late, reload []float64 // ms
	bulkAddrs, respBytes       int
	cpu, elapsed               time.Duration
}

// window runs the three legs for d: the bulk leg closed-loop on one
// connection, the online leg open-loop on another, and the publisher.
func (f *serveFixture) window(ctx context.Context, o options, r *report, d time.Duration) *serveStats {
	st := &serveStats{}
	ctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	start := time.Now()
	end := start.Add(d)
	m0, c0 := mallocs(), processCPU()
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { defer wg.Done(); f.bulkLeg(end, r, st) }()
	go func() { defer wg.Done(); f.onlineLeg(start, end, r, st) }()
	go func() { defer wg.Done(); f.publisher(ctx, o, r, st) }()
	wg.Wait()
	st.cpu, st.elapsed = processCPU()-c0, time.Since(start)
	if f.t.active() {
		reqs := len(st.bulk) + len(st.online)
		f.t.set("httpapi.allocs_per_req", float64(mallocs()-m0)/float64(max(reqs, 1)))
		f.t.set("httpapi.resp_bytes_per_addr", float64(st.respBytes)/float64(max(st.bulkAddrs, 1)))
		f.t.set("loadgen.late_ms", quantile(st.late, 0.99))
		f.t.set("loadgen.bulk_sent", float64(len(st.bulk)))
		f.t.set("loadgen.online_sent", float64(len(st.online)))
	}
	return st
}

func (f *serveFixture) bulkLeg(end time.Time, r *report, st *serveStats) {
	var buf bytes.Buffer
	for i := 0; time.Now().Before(end); i++ {
		k := i % len(f.ld.bulk)
		q := f.ld.bulk[k]
		t0 := time.Now()
		gen, err := f.post(f.bulkC, &buf, q.body, "bulk")
		t1 := time.Now()
		r.attempt()
		if err != nil {
			r.fail("bulk request: %v", err)
			continue
		}
		if !f.bulkOK(gen, k, crc32.Checksum(buf.Bytes(), castagnoli), t0, t1) {
			r.fail("bulk body %d answered by generation %s differs from that generation's reference", k, gen)
		}
		st.mu.Lock()
		st.bulk = append(st.bulk, ms(t1.Sub(t0)))
		st.bulkAddrs += len(q.addrs)
		st.respBytes += buf.Len()
		st.mu.Unlock()
	}
}

// onlineLeg sends each request when it is due, whether or not earlier
// ones have returned, and times it from that due time.
func (f *serveFixture) onlineLeg(start, end time.Time, r *report, st *serveStats) {
	var reqs sync.WaitGroup
	defer reqs.Wait()
	for j, due := range f.ld.due {
		at := start.Add(due)
		if !at.Before(end) {
			return
		}
		time.Sleep(time.Until(at))
		st.mu.Lock()
		st.late = append(st.late, ms(time.Since(at)))
		st.mu.Unlock()
		q := f.ld.online[j%len(f.ld.online)]
		reqs.Add(1)
		go func() {
			defer reqs.Done()
			var buf bytes.Buffer
			gen, err := f.post(f.onlineC, &buf, q.body, "online")
			done := time.Now()
			r.attempt()
			lat := ms(done.Sub(at))
			if err != nil {
				// A failed request misses any latency limit.
				lat = math.Inf(1)
				r.fail("online request: %v", err)
			} else if err := f.onlineOK(buf.Bytes(), gen, q, at, done); err != nil {
				r.fail("online answer: %v", err)
			}
			st.mu.Lock()
			st.online = append(st.online, lat)
			st.mu.Unlock()
		}()
	}
}

// publisher publishes the next epoch of the seeded order once per period
// and rescans.
func (f *serveFixture) publisher(ctx context.Context, o options, r *report, st *serveStats) {
	tick := time.NewTicker(o.publishEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		k := f.ld.epochs[f.next%len(f.ld.epochs)]
		f.next++
		d, err := f.publish(k)
		r.attempt()
		if err != nil {
			r.fail("publish epoch %d: %v", k, err)
			continue
		}
		st.mu.Lock()
		st.reload = append(st.reload, ms(d))
		st.mu.Unlock()
	}
}

// candidates lists the epoch the generation header names plus every
// epoch swapped in while [t0, t1] ran: the header is stamped just before
// the handler pins its generation, so a swap in between answers from the
// next epoch under the previous one's name.
func (f *serveFixture) candidates(gen string, t0, t1 time.Time) []int {
	var out []int
	if k, ok := f.gens[gen]; ok {
		out = append(out, k)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, s := range f.swaps {
		// A zero end is a rescan still running.
		if !s.start.After(t1) && (s.end.IsZero() || !s.end.Before(t0)) {
			out = append(out, s.epoch)
		}
	}
	return out
}

func (f *serveFixture) bulkOK(gen string, body int, sum uint32, t0, t1 time.Time) bool {
	for _, e := range f.candidates(gen, t0, t1) {
		if f.ref[[2]int{e, body}] == sum {
			return true
		}
	}
	return false
}

func (f *serveFixture) onlineOK(data []byte, gen string, q request, t0, t1 time.Time) error {
	var resp httpapi.BatchResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return err
	}
	err := fmt.Errorf("generation %s is no published epoch", gen)
	for _, e := range f.candidates(gen, t0, t1) {
		if err = checkEntries(resp, q, f.epochs[e]); err == nil {
			return nil
		}
	}
	return err
}

// checkEntries compares every entry of resp with geodb.DB.Lookup on dbs.
func checkEntries(resp httpapi.BatchResponse, q request, dbs []*geodb.DB) error {
	if len(resp.Entries) != len(q.addrs) {
		return fmt.Errorf("%d entries for %d addresses", len(resp.Entries), len(q.addrs))
	}
	for i, a := range q.addrs {
		e := resp.Entries[i]
		if e.Error != "" || e.IP != a.String() {
			return fmt.Errorf("entry %d: ip %q, error %q, want %s", i, e.IP, e.Error, a)
		}
		n := 0
		for _, db := range dbs {
			if q.db != "" && db.Name() != q.db {
				continue
			}
			n++
			rec, found := db.Lookup(a)
			want := wantJSON(rec, found)
			if got, ok := e.Results[db.Name()]; !ok || got != want {
				return fmt.Errorf("%s in %s: got %+v, want %+v", a, db.Name(), got, want)
			}
		}
		if len(e.Results) != n {
			return fmt.Errorf("%s: %d results, want %d", a, len(e.Results), n)
		}
	}
	return nil
}

// wantJSON is the /v2 wire form of a lookup answer.
func wantJSON(rec geodb.Record, found bool) httpapi.RecordJSON {
	if !found {
		return httpapi.RecordJSON{Resolution: "none"}
	}
	return httpapi.RecordJSON{
		Country:    rec.Country,
		City:       rec.City,
		Lat:        rec.Coord.Lat,
		Lon:        rec.Coord.Lon,
		Resolution: rec.Resolution.String(),
		BlockBits:  rec.BlockBits,
		Found:      true,
	}
}

// batchKernel times geodb.DB.LookupIndexBatch over each database's bulk
// address stream, five passes, outside any load.
func (f *serveFixture) batchKernel() {
	if !f.t.active() {
		return
	}
	var scratch ipx.BatchScratch
	var out []int32
	var elapsed time.Duration
	addrs, hits := 0, 0
	for pass := 0; pass < 5; pass++ {
		for _, db := range f.epochs[0] {
			for _, q := range f.ld.bulk {
				if q.db != db.Name() {
					continue
				}
				if cap(out) < len(q.addrs) {
					out = make([]int32, len(q.addrs))
				}
				out = out[:len(q.addrs)]
				t0 := time.Now()
				db.LookupIndexBatch(q.addrs, out, &scratch)
				elapsed += time.Since(t0)
				addrs += len(q.addrs)
				for _, x := range out {
					if x >= 0 {
						hits++
					}
				}
			}
		}
	}
	f.t.set("geodb.batch_ns_per_addr", float64(elapsed.Nanoseconds())/float64(max(addrs, 1)))
	f.t.set("geodb.hit_ratio", float64(hits)/float64(max(addrs, 1)))
}
