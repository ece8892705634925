package httpapi

import (
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"routergeo/internal/geodb"
	"routergeo/internal/ipx"
	"routergeo/internal/obs"
)

// Server defaults; all overridable through ServerOptions.
const (
	// DefaultMaxBatch bounds one POST /v2/lookup request. 100k keeps the
	// paper's 1.64M-address Ark sweep under twenty round trips while
	// capping per-request memory.
	DefaultMaxBatch = 100_000
	// DefaultMaxBodyBytes caps the /v2/lookup request body (a 100k-address
	// batch is under 2 MiB of JSON).
	DefaultMaxBodyBytes = 16 << 20
	// DefaultRequestTimeout is the deadline of one API request; see
	// WithRequestTimeout.
	DefaultRequestTimeout = 60 * time.Second
)

// ServerOption configures NewHandler.
type ServerOption func(*Handler)

// WithMaxBatch caps the number of addresses in one /v2/lookup request;
// larger batches are rejected with 413.
func WithMaxBatch(n int) ServerOption {
	return func(h *Handler) {
		if n > 0 {
			h.maxBatch = n
		}
	}
}

// WithMaxBodyBytes caps the /v2/lookup request body size;
// TestV2LookupOversizedBody413 lowers it to 64 bytes.
func WithMaxBodyBytes(n int64) ServerOption {
	return func(h *Handler) {
		if n > 0 {
			h.maxBody = n
		}
	}
}

// WithRequestTimeout gives each API request a deadline d after it
// reaches the handler (default DefaultRequestTimeout; 0 disables it).
// The deadline bounds the request's context and the connection's reads
// and writes, so it covers reading the body, the lookup and sending the
// answer: a client that stalls mid-upload or stops reading mid-answer
// holds the connection for at most d. A client whose request outlives
// its deadline sees the connection close, with no status or a cut-off
// body; the request counts as an error in /v2/stats and /metrics. GET
// /metrics and GET /v2/events have no deadline (see NewHandler).
func WithRequestTimeout(d time.Duration) ServerOption {
	return func(h *Handler) { h.timeout = d }
}

// WithLogger enables structured request logging through l (one line per
// request: method, path, status, duration — Info for 2xx/3xx, Warn for
// 4xx, Error for 5xx, so a Warn-floored logger keeps failures visible
// while silencing routine traffic). nil keeps access logging off.
func WithLogger(l *slog.Logger) ServerOption {
	return func(h *Handler) { h.logger = l }
}

// WithSnapshotArchive keeps the last n retired generations pinned after
// they are swapped out, so GET /v2/lookup?asof=<unix> can answer from
// the newest generation whose build epoch is at or before asof. Asof
// requests older than everything retained answer 404 with the archive-
// horizon sentinel. n <= 0 (the default) keeps no archive: asof then
// only ever matches the live generation.
func WithSnapshotArchive(n int) ServerOption {
	return func(h *Handler) {
		if n > 0 {
			h.archiveMax = n
		}
	}
}

// WithAdminReload arms the POST /v2/admin/reload endpoint with hook,
// typically a Reloader's Rescan. The hook triggers a snapshot rescan
// (force re-loads even when the directory looks unchanged) and reports
// whether a new generation was swapped in; ErrReloadInFlight from the
// hook answers 409. Without this option the admin route does not exist.
func WithAdminReload(hook func(force bool) (bool, error)) ServerOption {
	return func(h *Handler) { h.reloadHook = hook }
}

// WithEventBus replaces the handler's event bus (default: the
// process-wide obs.Events() bus). Server-side happenings — generation
// swaps, reload outcomes, chaos injections — publish here, and
// GET /v2/events streams it. TestServerEventReplay needs a private bus
// so that no other test's events enter its replay.
func WithEventBus(b *obs.EventBus) ServerOption {
	return func(h *Handler) {
		if b != nil {
			h.bus = b
		}
	}
}

// WithEventHeartbeat sets the /v2/events keep-alive comment interval
// (default obs.DefaultSSEHeartbeat);
// TestServerEventStreamOutlivesRequestTimeout shortens it below its
// request timeout.
func WithEventHeartbeat(d time.Duration) ServerOption {
	return func(h *Handler) {
		if d > 0 {
			h.sseHeartbeat = d
		}
	}
}

// Handler serves the /v1 and /v2 API over a generation of databases.
// The serving set is swappable at runtime (Swap, the hot-reload path);
// everything else is immutable after NewHandler except the draining
// flag and the metrics, all safe for concurrent use.
type Handler struct {
	gen atomic.Pointer[generation]

	maxBatch   int
	maxBody    int64
	timeout    time.Duration
	logger     *slog.Logger
	reloadHook func(force bool) (bool, error)

	draining atomic.Bool
	metrics  *metrics

	// The snapshot archive: the last archiveMax retired generations, in
	// retirement order, each still holding the pin Swap would otherwise
	// have dropped. archiveMu linearizes Swap's retire/evict against
	// acquireAsOf's scan.
	archiveMax int
	archiveMu  sync.Mutex
	archive    []*generation

	// bus carries the server's live event stream; streamStop is closed
	// once when the server starts draining, ending every /v2/events
	// connection so graceful shutdown never waits on an open stream.
	bus          *obs.EventBus
	sseHeartbeat time.Duration
	streamStop   chan struct{}
	stopOnce     sync.Once

	serve http.Handler
}

// NewHandler serves the given databases behind the middleware stack,
// outermost first: panic recovery, optional request logging, the
// generation header, then, for the API routes, the request deadline
// (WithRequestTimeout) and the metrics. Every layer runs on the
// connection's goroutine and writes through, so an answer streams to
// the client as the handler writes it. Two routes sit outside the
// deadline and metrics layers: GET /metrics (the Prometheus exposition
// must not skew the latency histogram it reports) and GET /v2/events (a
// deliberately long-lived SSE stream that a request deadline would cut).
func NewHandler(dbs []*geodb.DB, opts ...ServerOption) *Handler {
	h := &Handler{
		maxBatch:     DefaultMaxBatch,
		maxBody:      DefaultMaxBodyBytes,
		timeout:      DefaultRequestTimeout,
		bus:          obs.Events(),
		sseHeartbeat: obs.DefaultSSEHeartbeat,
		streamStop:   make(chan struct{}),
	}
	gen := newGeneration(dbs, nil)
	h.gen.Store(gen)
	for _, o := range opts {
		o(h)
	}
	h.metrics = newMetrics(gen.names)

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", h.handleHealthz)
	mux.HandleFunc("GET /v1/databases", h.handleV1Databases)
	mux.HandleFunc("GET /v1/lookup", h.handleV1Lookup)
	mux.HandleFunc("POST /v2/lookup", h.handleV2Lookup)
	mux.HandleFunc("GET /v2/databases", h.handleV2Databases)
	mux.HandleFunc("GET /v2/stats", h.handleV2Stats)
	if h.reloadHook != nil {
		// The route exists only when a reload hook is armed, so an unarmed
		// server answers the admin path with a plain 404.
		mux.HandleFunc("POST /v2/admin/reload", h.handleAdminReload)
	}

	// The deadline wraps the metrics so that they see it: a request that
	// outlives its deadline counts as an error.
	api := h.metrics.middleware(mux)
	if h.timeout > 0 {
		api = deadlineMiddleware(h.timeout, api)
	}

	outer := http.NewServeMux()
	outer.Handle("/", api)
	outer.Handle("GET /metrics", obs.PromHandler(h.metrics.reg))
	outer.Handle("GET /v2/events", obs.NewSSEHandler(h.bus,
		obs.WithSSEHeartbeat(h.sseHeartbeat),
		obs.WithSSEStop(h.streamStop),
		obs.WithSSERegistry(h.metrics.reg),
	))

	stack := h.generationMiddleware(outer)
	if h.logger != nil {
		stack = loggingMiddleware(h.logger, stack)
	}
	stack = recoveryMiddleware(stack)
	h.serve = stack
	return h
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.serve.ServeHTTP(w, r)
}

// SetDraining flips the /healthz answer between "ok" (200) and
// "draining" (503), so load balancers stop routing to a server that is
// shutting down while in-flight requests finish. Entering the draining
// state also ends every open /v2/events stream (once — streams stay
// closed even if draining is later unset), so http.Server.Shutdown
// never waits on them.
func (h *Handler) SetDraining(v bool) {
	h.draining.Store(v)
	if v {
		h.stopOnce.Do(func() { close(h.streamStop) })
	}
}

// Registry exposes the handler's metrics registry — the same instruments
// /v2/stats and /metrics are assembled from — for debug endpoints and
// tests.
func (h *Handler) Registry() *obs.Registry { return h.metrics.reg }

// EventBus exposes the bus behind GET /v2/events, so co-located
// subsystems (the chaos middleware, the reloader) publish onto the same
// stream the server serves.
func (h *Handler) EventBus() *obs.EventBus { return h.bus }

func (h *Handler) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if h.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("draining\n"))
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}

func (h *Handler) handleV1Databases(w http.ResponseWriter, r *http.Request) {
	g := h.acquireGen()
	defer g.release()
	writeJSON(w, http.StatusOK, g.names)
}

func (h *Handler) handleV1Lookup(w http.ResponseWriter, r *http.Request) {
	g := h.acquireGen()
	defer g.release()
	ipStr := r.URL.Query().Get("ip")
	addr, err := ipx.ParseAddr(ipStr)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "invalid or missing ip parameter"})
		return
	}
	dbName := r.URL.Query().Get("db")
	if dbName != "" {
		if _, ok := g.byName[dbName]; !ok {
			writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "unknown database " + dbName})
			return
		}
	}
	resp := LookupResponse{IP: addr.String(), Results: h.resolve(g, addr, dbName)}
	writeJSON(w, http.StatusOK, resp)
}

// resolve answers one address from one database (dbName != "") or all,
// within the pinned generation g.
func (h *Handler) resolve(g *generation, addr ipx.Addr, dbName string) map[string]RecordJSON {
	out := make(map[string]RecordJSON, len(g.byName))
	for name, db := range g.byName {
		if dbName != "" && name != dbName {
			continue
		}
		rec, found := db.Lookup(addr)
		h.metrics.recordLookup(name, found)
		out[name] = toJSON(rec, found)
	}
	return out
}

// handleV2Lookup is the batch-lookup hot path: pooled request state, a
// non-allocating JSON scan and dotted-quad parse, the ipx batch-lookup
// kernel per database, and a response assembled from per-generation
// cached record JSON. A well-formed batch of hits allocates nothing per
// request in the steady state (BenchmarkV2LookupHandler pins this);
// bodies the fast scanner cannot take drop to encoding/json for exact
// stdlib semantics and error text.
func (h *Handler) handleV2Lookup(w http.ResponseWriter, r *http.Request) {
	st := v2StatePool.Get().(*v2State)
	defer putV2State(st)
	if !h.answerV2Lookup(w, r, st) {
		return
	}
	// The answer is in st.out and every generation pin is released, so a
	// client that reads it slowly never keeps a retired snapshot mapped.
	// Direct map assignment of a shared value: Header().Set builds a
	// fresh []string per call, the last allocation on this path.
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(st.out)
}

// answerV2Lookup resolves r's batch into st.out within the pinned
// generation, or the asof one, and releases the pins on return. It
// reports false when it has already written an error answer.
func (h *Handler) answerV2Lookup(w http.ResponseWriter, r *http.Request, st *v2State) bool {
	g := h.acquireGen()
	defer g.release()
	if r.URL.RawQuery != "" {
		// Cold path: time travel. The RawQuery gate keeps URL parsing (and
		// its allocations) away from plain batch lookups.
		ag, handled := h.timeTravel(w, r)
		if handled {
			return false
		}
		if ag != nil {
			defer ag.release()
			g = ag
			// Override the middleware's stamp: this answer comes from the
			// pinned historical generation, not the live one.
			w.Header().Set(GenerationHeader, g.id)
		}
	}
	body, err := st.readBody(r.Body, h.maxBody)
	if err != nil {
		if _, ok := err.(bodyTooLargeError); ok {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				ErrorResponse{Error: "request body too large", MaxBatch: h.maxBatch})
			return false
		}
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "malformed JSON body: " + err.Error()})
		return false
	}
	dbFilter, ok := st.parseBatchRequest(body)
	if !ok {
		var req BatchRequest
		if err := json.Unmarshal(body, &req); err != nil {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "malformed JSON body: " + err.Error()})
			return false
		}
		st.setIPsFromStrings(req.IPs)
		dbFilter = []byte(req.DB)
	}
	n := len(st.ips)
	if n == 0 {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "empty ips list"})
		return false
	}
	if n > h.maxBatch {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			ErrorResponse{Error: "batch too large", MaxBatch: h.maxBatch})
		return false
	}
	sel := st.sel[:0]
	if len(dbFilter) != 0 {
		if _, ok := g.byName[string(dbFilter)]; !ok {
			writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "unknown database " + string(dbFilter)})
			return false
		}
		for i := range g.serve {
			if g.serve[i].name == string(dbFilter) {
				sel = append(sel, i)
			}
		}
	} else {
		for i := range g.serve {
			sel = append(sel, i)
		}
	}
	st.sel = sel

	// Parse every address; a malformed entry fails alone, the rest of
	// the batch still resolves. parseQuad covers the canonical grammar
	// without allocating; anything else gets the authoritative slow
	// parse and, on failure, its error text.
	st.addrs = growN(st.addrs, n)
	st.errs = growN(st.errs, n)
	valid := 0
	for i, ip := range st.ips {
		st.errs[i] = ""
		if a, ok := parseQuad(ip); ok {
			st.addrs[i], valid = a, valid+1
			continue
		}
		a, err := ipx.ParseAddr(string(ip))
		if err != nil {
			st.addrs[i], st.errs[i] = 0, err.Error()
			continue
		}
		st.addrs[i], valid = a, valid+1
	}

	st.resolveBatch(g.serve, sel)
	st.appendEntries(g.serve, sel)
	for j, si := range sel {
		h.metrics.addLookups(g.serve[si].name, st.hits[j], int64(valid)-st.hits[j])
	}
	return true
}

// jsonContentType is the shared Content-Type header value the zero-alloc
// path assigns directly (the key is already in canonical form).
var jsonContentType = []string{"application/json"}

// beforeHorizonText is the ErrorResponse body of the 404 answering an
// asof older than every generation the server retains.
const beforeHorizonText = "no generation at or before asof: beyond the snapshot archive horizon"

// timeTravel resolves a /v2/lookup?asof= query to a pinned generation.
// handled == true means the response was already written (bad parameter,
// or asof precedes the archive horizon); a nil generation with handled
// == false means no asof was requested and the live generation stands.
func (h *Handler) timeTravel(w http.ResponseWriter, r *http.Request) (*generation, bool) {
	s := r.URL.Query().Get("asof")
	if s == "" {
		return nil, false
	}
	asof, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "invalid asof parameter: " + s})
		return nil, true
	}
	g := h.acquireAsOf(asof)
	if g == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: beforeHorizonText})
		return nil, true
	}
	return g, false
}

func (h *Handler) handleV2Databases(w http.ResponseWriter, r *http.Request) {
	g := h.acquireGen()
	defer g.release()
	if notModified(w, r, g) {
		return
	}
	writeJSON(w, http.StatusOK, g.infos)
}

func (h *Handler) handleV2Stats(w http.ResponseWriter, r *http.Request) {
	g := h.acquireGen()
	defer g.release()
	if notModified(w, r, g) {
		return
	}
	s := h.metrics.snapshot()
	s.Draining = h.draining.Load()
	s.Generation = g.id
	s.Reloads = h.metrics.swaps.Value()
	s.Snapshots = g.snaps
	if h.archiveMax > 0 {
		h.archiveMu.Lock()
		a := &ArchiveInfo{Generations: len(h.archive), Max: h.archiveMax}
		for i, ag := range h.archive {
			if i == 0 || ag.epoch < a.HorizonEpoch {
				a.HorizonEpoch = ag.epoch
			}
		}
		if cur := h.gen.Load(); len(h.archive) == 0 || cur.epoch < a.HorizonEpoch {
			a.HorizonEpoch = cur.epoch
		}
		h.archiveMu.Unlock()
		s.Archive = a
	}
	writeJSON(w, http.StatusOK, s)
}

func (h *Handler) handleAdminReload(w http.ResponseWriter, r *http.Request) {
	force := r.URL.Query().Get("force") == "1" || r.URL.Query().Get("force") == "true"
	swapped, err := h.reloadHook(force)
	switch {
	case errors.Is(err, ErrReloadInFlight):
		writeJSON(w, http.StatusConflict, ErrorResponse{Error: err.Error()})
		return
	case err != nil:
		// The failed rescan left the old generation serving; report that
		// identity so the caller can see nothing moved.
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
		return
	}
	status := "unchanged"
	if swapped {
		status = "reloaded"
	}
	writeJSON(w, http.StatusOK, ReloadResponse{Status: status, Generation: h.Generation()})
}

func databaseInfo(db *geodb.DB) DatabaseInfo {
	info := DatabaseInfo{Name: db.Name(), Ranges: db.Len()}
	db.Walk(func(_ ipx.Range, rec geodb.Record) bool {
		switch rec.Resolution {
		case geodb.ResolutionCity:
			info.CityRanges++
		case geodb.ResolutionCountry:
			info.CountryRanges++
		}
		return true
	})
	return info
}

// compile-time interface check
var _ http.Handler = (*Handler)(nil)
