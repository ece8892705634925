package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"routergeo/internal/geo"
	"routergeo/internal/geodb"
	"routergeo/internal/ipx"
)

// TestParseQuadMatchesParseAddr pins the fast dotted-quad parser to
// ipx.ParseAddr's acceptance: everything parseQuad takes must parse to
// the same address (rejections fall through to the slow parse, so they
// only cost speed, never correctness).
func TestParseQuadMatchesParseAddr(t *testing.T) {
	cases := []string{
		"0.0.0.0", "1.2.3.4", "255.255.255.255", "10.0.1.2", "192.0.2.1",
		"01.2.3.4", "1.2.3.04", "1.2.3", "1.2.3.4.5", "256.1.1.1", "1.2.3.400",
		"", ".", "...", "1..2.3", "1.2.3.", ".1.2.3.4", "1.2.3.4 ", " 1.2.3.4",
		"banana", "999.1.1.1", "1.2.3.4\n", "0x1.2.3.4", "-1.2.3.4",
		"1.2.3.4%eth0", "::ffff:1.2.3.4", "10.000.0.1", "0.0.0.00",
	}
	for oct := 0; oct < 256; oct++ {
		cases = append(cases, fmt.Sprintf("%d.%d.%d.%d", oct, 255-oct, oct/2, oct))
	}
	for _, s := range cases {
		fast, fok := parseQuad([]byte(s))
		slow, err := ipx.ParseAddr(s)
		if fok && err != nil {
			t.Errorf("parseQuad accepts %q, ipx.ParseAddr rejects it: %v", s, err)
		}
		if fok && fast != slow {
			t.Errorf("parseQuad(%q) = %v, ipx.ParseAddr = %v", s, fast, slow)
		}
		if !fok && err == nil {
			// Tolerated (slow path answers), but the canonical grammar
			// should never miss: flag it so the fast path stays complete.
			t.Errorf("parseQuad rejects %q, which ipx.ParseAddr accepts", s)
		}
	}
}

// TestParseBatchRequestScanner checks the fast body scanner against the
// stdlib on bodies it must take, and that bodies needing full JSON
// semantics are refused (falling back rather than misparsing).
func TestParseBatchRequestScanner(t *testing.T) {
	accepted := []string{
		`{"ips":["1.2.3.4","5.6.7.8"]}`,
		`{"ips":["1.2.3.4"],"db":"alpha"}`,
		`{"db":"beta","ips":["1.2.3.4"]}`,
		` { "ips" : [ "1.2.3.4" , "x" ] , "db" : "b" } `,
		`{"ips":[]}`,
		`{}`,
		"{\n\t\"ips\": [\"9.9.9.9\"]\n}\n",
		`{"ips":["a","a","a"]}`,
		`{"ips":["old"],"ips":["new"]}`, // duplicate key: last wins
	}
	st := new(v2State)
	for _, body := range accepted {
		db, ok := st.parseBatchRequest([]byte(body))
		if !ok {
			t.Errorf("scanner refused %q", body)
			continue
		}
		var want BatchRequest
		if err := json.Unmarshal([]byte(body), &want); err != nil {
			t.Fatalf("stdlib rejects accepted body %q: %v", body, err)
		}
		if len(st.ips) != len(want.IPs) {
			t.Errorf("%q: scanner found %d ips, stdlib %d", body, len(st.ips), len(want.IPs))
			continue
		}
		for i := range want.IPs {
			if string(st.ips[i]) != want.IPs[i] {
				t.Errorf("%q: ip %d = %q, want %q", body, i, st.ips[i], want.IPs[i])
			}
		}
		if string(db) != want.DB {
			t.Errorf("%q: db = %q, want %q", body, db, want.DB)
		}
	}
	refused := []string{
		`not json`,
		`[]`,
		`{"ips":"1.2.3.4"}`,
		`{"ips":[1,2]}`,
		`{"ips":["a\"b"]}`,
		`{"ips":["a\u0041b"]}`,
		`{"extra":1,"ips":["1.2.3.4"]}`,
		`{"ips":["1.2.3.4"]`,
		`{"ips":[null]}`,
		`{"db":7}`,
	}
	for _, body := range refused {
		if _, ok := st.parseBatchRequest([]byte(body)); ok {
			t.Errorf("scanner accepted %q, which needs the stdlib fallback", body)
		}
	}
}

// TestV2LookupWireParity pins the fast serializer's bytes to exactly
// what encoding/json produced for the same answer: sorted result keys,
// omitted zero fields, the Encoder's trailing newline.
func TestV2LookupWireParity(t *testing.T) {
	dbs := testDBs(t)
	h := NewHandler(dbs)
	ips := []string{"10.0.1.2", "192.0.2.1", "banana", "10.0.9.9"}
	body, _ := json.Marshal(BatchRequest{IPs: ips})

	req := httptest.NewRequest(http.MethodPost, "/v2/lookup", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}

	entries := make([]BatchEntry, 0, len(ips))
	for _, ip := range ips {
		addr, err := ipx.ParseAddr(ip)
		if err != nil {
			entries = append(entries, BatchEntry{IP: ip, Error: err.Error()})
			continue
		}
		results := make(map[string]RecordJSON, len(dbs))
		for _, db := range dbs {
			rec, found := db.Lookup(addr)
			results[db.Name()] = toJSON(rec, found)
		}
		entries = append(entries, BatchEntry{IP: ip, Results: results})
	}
	want, _ := json.Marshal(BatchResponse{Entries: entries})
	want = append(want, '\n')
	if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
		t.Errorf("wire bytes diverge from encoding/json:\n got %s\nwant %s", got, want)
	}
}

// nullResponseWriter swallows the response so the alloc measurements
// see only the handler's own work; it keeps the status and the body's
// length.
type nullResponseWriter struct {
	h       http.Header
	status  int
	written int
}

func (n *nullResponseWriter) Header() http.Header { return n.h }
func (n *nullResponseWriter) Write(b []byte) (int, error) {
	n.written += len(b)
	return len(b), nil
}
func (n *nullResponseWriter) WriteHeader(code int) { n.status = code }

// replayBody is a resettable no-alloc request body.
type replayBody struct {
	data []byte
	off  int
}

func (r *replayBody) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}
func (r *replayBody) Close() error { return nil }

func batchBody(n int) []byte {
	var b strings.Builder
	b.WriteString(`{"ips":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `"10.0.%d.%d"`, i/250, i%250)
	}
	b.WriteString(`]}`)
	return []byte(b.String())
}

// TestV2LookupZeroAllocSteadyState drives the handler directly (no
// net/http server machinery) and requires the steady-state hot path to
// stop allocating once the pooled state has grown to the batch size. It
// runs at several GOMAXPROCS values, each set before NewHandler, so the
// zero-alloc guarantee is checked as a multi-core server would run, not
// only on the core count of the machine at hand.
func TestV2LookupZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the zero-alloc bar is asserted in normal builds and by the bench-compare gate")
	}
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			h := NewHandler(testDBs(t))
			body := batchBody(512)
			rb := &replayBody{data: body}
			req := httptest.NewRequest(http.MethodPost, "/v2/lookup", rb)
			req.Body = rb
			w := &nullResponseWriter{h: make(http.Header)}

			run := func() {
				rb.off = 0
				h.handleV2Lookup(w, req)
			}
			run() // warm the pools
			if avg := testing.AllocsPerRun(200, run); avg > 0.1 {
				t.Errorf("steady-state /v2/lookup allocates %.2f times per request at GOMAXPROCS=%d, want 0", avg, procs)
			}
		})
	}
}

// TestV2LookupStackDoesNotCopyAnswer drives bulk requests through the
// whole middleware stack at its default options and bounds the bytes it
// allocates per request, averaged over 256 requests, to an eighth of
// the answer, so no layer may copy the answer on its way out. At
// GOMAXPROCS above 1 (make cores runs this at -cpu 1,2,4) the request
// goroutine can move to a P whose sync.Pool slot is empty; that miss
// regrows the pooled state, about 6 MB or seven answers, and the
// average leaves room for four of them.
func TestV2LookupStackDoesNotCopyAnswer(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the bound is asserted in normal builds")
	}
	h := NewHandler(testDBs(t))
	rb := &replayBody{data: batchBody(4096)}
	req := httptest.NewRequest(http.MethodPost, "/v2/lookup", rb)
	req.Body = rb
	w := &nullResponseWriter{h: make(http.Header)}
	run := func() {
		rb.off, w.status, w.written = 0, 0, 0
		h.ServeHTTP(w, req)
	}
	for i := 0; i < 3; i++ {
		run() // warm the pools
	}
	if w.status != http.StatusOK {
		t.Fatalf("POST /v2/lookup through the stack = %d", w.status)
	}
	answer := w.written
	// A collection moves pooled state to the pool's victim cache and the
	// next one drops it: collect now, so that none is due in the loop.
	runtime.GC()
	run()

	const reqs = 256
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reqs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if perReq := (after.TotalAlloc - before.TotalAlloc) / reqs; perReq >= uint64(answer/8) {
		t.Errorf("the stack allocates %d bytes per request for a %d-byte answer, want under %d",
			perReq, answer, answer/8)
	}
}

func benchDBs(b *testing.B) []*geodb.DB {
	b.Helper()
	mk := func(name string, seed int) *geodb.DB {
		bl := geodb.NewBuilder(name)
		for i := 0; i < 256; i++ {
			rec := geodb.Record{Country: "US", Resolution: geodb.ResolutionCountry, BlockBits: 24}
			if (i+seed)%2 == 0 {
				rec.City = fmt.Sprintf("city-%d", i)
				rec.Coord = geo.Coordinate{Lat: float64(i) / 8, Lon: -float64(i) / 4}
				rec.Resolution = geodb.ResolutionCity
			}
			bl.AddPrefix(0, ipx.Prefix{Base: ipx.Addr(10<<24 | i<<8), Bits: 24}, rec)
		}
		db, err := bl.Build()
		if err != nil {
			b.Fatal(err)
		}
		return db
	}
	return []*geodb.DB{mk("alpha", 0), mk("beta", 1)}
}

// BenchmarkV2LookupHandler measures the POST /v2/lookup hot path white
// box: the handler is called directly with a replayed body and a null
// writer, so B/op and allocs/op are the handler's own (bench-compare
// gates them against the committed baseline).
func BenchmarkV2LookupHandler(b *testing.B) {
	h := NewHandler(benchDBs(b))
	for _, n := range []int{16, 512, 8192} {
		b.Run(fmt.Sprintf("batch=%d", n), func(b *testing.B) {
			body := batchBody(n)
			rb := &replayBody{data: body}
			req := httptest.NewRequest(http.MethodPost, "/v2/lookup", rb)
			req.Body = rb
			w := &nullResponseWriter{h: make(http.Header)}
			rb.off = 0
			h.handleV2Lookup(w, req) // warm the pools
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rb.off = 0
				h.handleV2Lookup(w, req)
			}
			b.StopTimer()
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "addrs/s")
		})
	}
}
