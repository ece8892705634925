package httpapi

import (
	"net/http"
	"strings"
	"sync"
	"time"

	"routergeo/internal/obs"
)

// DBStats is one database's hit/miss tally in a StatsResponse.
type DBStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// StatsResponse is the GET /v2/stats payload. The shape is frozen: it is
// served unchanged from before the obs migration, only the backing
// instruments moved from expvar to an obs.Registry.
type StatsResponse struct {
	// Requests counts every request through the middleware stack.
	Requests int64 `json:"requests"`
	// ByEndpoint counts requests per API route, keyed "METHOD /path".
	// Every request no route takes by its exact method and path counts
	// under "other": unknown paths (404s), a known path under another
	// method (405s) and HEAD requests, which the GET routes answer. The
	// keys are fixed when the server starts, whatever paths clients send.
	ByEndpoint map[string]int64 `json:"by_endpoint"`
	// Errors counts responses with status >= 400 and requests that
	// outlived their deadline (WithRequestTimeout).
	Errors int64 `json:"errors"`
	// LatencyMs holds p50/p90/p99 estimated from the latency histogram
	// (empty until the first request).
	LatencyMs map[string]float64 `json:"latency_ms"`
	// DBs tallies lookup hits and misses per database, across /v1 and
	// /v2 alike.
	DBs map[string]DBStats `json:"dbs"`
	// Draining mirrors /healthz's shutdown state.
	Draining bool `json:"draining"`

	// Generation is the set-level generation id currently serving (also
	// the X-Geodb-Generation header and the basis of the /v2 ETags).
	Generation string `json:"generation,omitempty"`
	// Reloads counts generation swaps since the server started.
	Reloads int64 `json:"reloads,omitempty"`
	// Snapshots is the per-database identity block of the serving
	// generation.
	Snapshots map[string]SnapshotInfo `json:"snapshots,omitempty"`

	// The resilience sections below are omitted when empty, keeping the
	// frozen pre-chaos shape for deployments that use none of it.

	// Chaos tallies injected faults per kind when the server runs with
	// -chaos (registry prefix chaos.injected.).
	Chaos map[string]int64 `json:"chaos,omitempty"`
	// Breakers is the per-host circuit-breaker view of any client that
	// registered its instruments here via WithClientMetrics (registry
	// prefix client.breaker.<host>.).
	Breakers map[string]BreakerStats `json:"breakers,omitempty"`
	// Taint tallies outage bookkeeping from such clients: transport
	// errors, lookups degraded to a local fallback, lookups tainted as
	// false misses (registry prefix client.outage.).
	Taint map[string]int64 `json:"taint,omitempty"`

	// Archive describes the snapshot archive backing ?asof= time travel;
	// omitted when the server keeps no archive (WithSnapshotArchive).
	Archive *ArchiveInfo `json:"archive,omitempty"`
}

// ArchiveInfo is the StatsResponse block describing the generation
// archive.
type ArchiveInfo struct {
	// Generations is how many retired generations are currently held.
	Generations int `json:"generations"`
	// Max is the configured archive capacity.
	Max int `json:"max"`
	// HorizonEpoch is the oldest build epoch still answerable: ?asof=
	// values before it are 404s.
	HorizonEpoch int64 `json:"horizon_epoch"`
}

// dbTally is one database's pair of registry counters, resolved once at
// construction so the lookup hot path never touches the registry lock.
type dbTally struct {
	hits, misses *obs.Counter
}

// metrics is the per-handler instrument set the stats middleware feeds.
// Everything lives in a single obs.Registry (exposed via
// Handler.Registry for the -debug-addr metrics endpoint); the struct
// caches the hot instruments.
type metrics struct {
	reg      *obs.Registry
	requests *obs.Counter
	errors   *obs.Counter
	latency  *obs.Histogram
	// swaps counts generation swaps (registry name generation.swaps);
	// /v2/stats surfaces it as Reloads.
	swaps *obs.Counter

	// byEndpoint holds each API route's counter, keyed by method and
	// path; NewHandler fills it through addRoute before the handler
	// serves, so it is read without a lock. other counts every request
	// no route takes, so client-chosen paths never add a counter.
	byEndpoint map[[2]string]*obs.Counter
	other      *obs.Counter

	// byDB counters are created on demand — a hot reload can introduce
	// database names that did not exist at construction — and cached so
	// the common case is one map read under an RLock.
	mu   sync.RWMutex
	byDB map[string]*dbTally
}

// otherEndpoint is the ByEndpoint key, and http.by_endpoint.other the
// registry counter, of the requests no API route takes.
const otherEndpoint = "other"

func newMetrics(dbNames []string) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		reg:        reg,
		requests:   reg.Counter("http.requests"),
		errors:     reg.Counter("http.errors"),
		latency:    reg.Histogram("http.latency_ms", obs.LatencyBucketsMs),
		swaps:      reg.Counter("generation.swaps"),
		byEndpoint: make(map[[2]string]*obs.Counter),
		other:      reg.Counter("http.by_endpoint." + otherEndpoint),
		byDB:       make(map[string]*dbTally, len(dbNames)),
	}
	// Help text rides into the Prometheus exposition's # HELP lines.
	reg.SetHelp("http.requests", "HTTP requests served, across every route.")
	reg.SetHelp("http.errors", "HTTP responses with status >= 400, and requests that outlived their deadline.")
	reg.SetHelp("http.latency_ms", "Request latency in milliseconds, end to end through the middleware stack.")
	reg.SetHelp("generation.swaps", "Hot-reload generation swaps since the server started.")
	// Pre-seed the initial serving set so its tallies exist (at zero) on
	// the first /v2/stats; later names join on first lookup.
	for _, name := range dbNames {
		m.tally(name)
	}
	return m
}

// addRoute creates an API route's counter under the registry name
// "http.by_endpoint.<METHOD PATH>".
func (m *metrics) addRoute(method, path string) {
	m.byEndpoint[[2]string{method, path}] = m.reg.Counter("http.by_endpoint." + method + " " + path)
}

// middleware counts the request, its endpoint, its status class and its
// latency. A request that ends past its context's deadline counts as an
// error whatever status it wrote: its client saw the connection close.
func (m *metrics) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(rec, r)
		end := time.Now()
		m.requests.Inc()
		deadline, hasDeadline := r.Context().Deadline()
		if rec.status >= 400 || hasDeadline && !end.Before(deadline) {
			m.errors.Inc()
		}
		c, ok := m.byEndpoint[[2]string{r.Method, r.URL.Path}]
		if !ok {
			c = m.other
		}
		c.Inc()
		m.latency.Observe(float64(end.Sub(start)) / float64(time.Millisecond))
	})
}

// tally resolves a database's hit/miss counters, creating them on first
// sight under the registry names "db.<name>.hits" and ".misses" —
// databases can appear at runtime through a hot reload.
func (m *metrics) tally(db string) *dbTally {
	m.mu.RLock()
	t, ok := m.byDB[db]
	m.mu.RUnlock()
	if ok {
		return t
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if t, ok := m.byDB[db]; ok {
		return t
	}
	t = &dbTally{
		hits:   m.reg.Counter("db." + db + ".hits"),
		misses: m.reg.Counter("db." + db + ".misses"),
	}
	m.byDB[db] = t
	return t
}

// recordLookup tallies one /v1 database answer.
func (m *metrics) recordLookup(db string, found bool) {
	t := m.tally(db)
	if found {
		t.hits.Inc()
	} else {
		t.misses.Inc()
	}
}

// addLookups tallies a whole batch's worth of answers for one database
// in two counter adds, so the /v2/lookup hot path pays the tally-map
// lock once per (request, database) instead of once per address.
func (m *metrics) addLookups(db string, hits, misses int64) {
	t := m.tally(db)
	t.hits.Add(hits)
	t.misses.Add(misses)
}

// snapshot assembles a StatsResponse from the live instruments.
func (m *metrics) snapshot() StatsResponse {
	out := StatsResponse{
		Requests:   m.requests.Value(),
		Errors:     m.errors.Value(),
		ByEndpoint: make(map[string]int64),
		LatencyMs:  make(map[string]float64),
		DBs:        make(map[string]DBStats),
	}
	for route, c := range m.byEndpoint {
		out.ByEndpoint[route[0]+" "+route[1]] = c.Value()
	}
	out.ByEndpoint[otherEndpoint] = m.other.Value()
	m.mu.RLock()
	for name, t := range m.byDB {
		out.DBs[name] = DBStats{Hits: t.hits.Value(), Misses: t.misses.Value()}
	}
	m.mu.RUnlock()
	if m.latency.Count() > 0 {
		out.LatencyMs["p50"] = m.latency.Quantile(0.50)
		out.LatencyMs["p90"] = m.latency.Quantile(0.90)
		out.LatencyMs["p99"] = m.latency.Quantile(0.99)
	}
	fillResilience(&out, m.reg.Snapshot())
	return out
}

// fillResilience populates the omitempty chaos/breaker/taint sections by
// prefix-scanning a registry snapshot. The instruments arrive from two
// sides — the chaos middleware's observer and any Client pointed here by
// WithClientMetrics — so scanning the registry is the only place they
// all meet.
func fillResilience(out *StatsResponse, snap obs.Snapshot) {
	const (
		chaosPrefix   = "chaos.injected."
		breakerPrefix = "client.breaker."
		outagePrefix  = "client.outage."
	)
	// splitBreaker resolves "client.breaker.<host>.<field>"; hosts can
	// themselves contain dots, so the split is on the last one.
	splitBreaker := func(name string) (host, field string, ok bool) {
		rest := strings.TrimPrefix(name, breakerPrefix)
		i := strings.LastIndex(rest, ".")
		if i <= 0 {
			return "", "", false
		}
		return rest[:i], rest[i+1:], true
	}
	breakers := map[string]*BreakerStats{}
	breakerFor := func(host string) *BreakerStats {
		bs, ok := breakers[host]
		if !ok {
			bs = &BreakerStats{State: breakerStateName(breakerClosed)}
			breakers[host] = bs
		}
		return bs
	}
	for name, v := range snap.Counters {
		switch {
		case strings.HasPrefix(name, chaosPrefix):
			if out.Chaos == nil {
				out.Chaos = make(map[string]int64)
			}
			out.Chaos[strings.TrimPrefix(name, chaosPrefix)] = v
		case strings.HasPrefix(name, outagePrefix):
			if out.Taint == nil {
				out.Taint = make(map[string]int64)
			}
			out.Taint[strings.TrimPrefix(name, outagePrefix)] = v
		case strings.HasPrefix(name, breakerPrefix):
			host, field, ok := splitBreaker(name)
			if !ok {
				continue
			}
			switch field {
			case "opens":
				breakerFor(host).Opens = v
			case "short_circuits":
				breakerFor(host).ShortCircuits = v
			}
		}
	}
	for name, v := range snap.Gauges {
		if host, field, ok := splitBreaker(name); ok && field == "state" &&
			strings.HasPrefix(name, breakerPrefix) {
			breakerFor(host).State = breakerStateName(v)
		}
	}
	if len(breakers) > 0 {
		out.Breakers = make(map[string]BreakerStats, len(breakers))
		for host, bs := range breakers {
			out.Breakers[host] = *bs
		}
	}
}
