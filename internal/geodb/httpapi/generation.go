package httpapi

import (
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"routergeo/internal/geodb"
)

// GenerationHeader is the response header every request carries, naming
// the serving generation that answered it. Clients compare it across
// requests to detect a hot reload happening mid-sweep.
const GenerationHeader = "X-Geodb-Generation"

// generation is one immutable serving set: the databases, their derived
// introspection payloads, and the identity the /v2 surface reports. The
// handler swaps whole generations atomically; in-flight requests pin the
// generation they started on with a refcount, so a snapshot mapping is
// only released after its last reader drains.
type generation struct {
	byName map[string]*geodb.DB
	names  []string
	infos  []DatabaseInfo
	snaps  map[string]SnapshotInfo

	// serve is the /v2/lookup serializer cache: the databases in sorted
	// name order with their per-record response JSON pre-marshaled.
	serve []servedDB

	// id is the set-level generation id: a hash over the sorted per-DB
	// generations, so it changes iff any member database changes. etag is
	// its quoted strong-ETag form.
	id   string
	etag string

	// epoch is the newest BuildEpoch among the member databases — the
	// point in time this generation represents. The ?asof= selector
	// compares against it; 0 for purely in-memory builds, which serve
	// any asof.
	epoch int64

	closers []func() error

	// refs counts pins: the handler's own reference plus one per
	// in-flight request. It starts at 1 and the closers run when it
	// reaches 0 — i.e. after the generation was swapped out AND the last
	// request against it finished.
	refs      atomic.Int64
	closeOnce sync.Once
}

func newGeneration(dbs []*geodb.DB, closers []func() error) *generation {
	g := &generation{
		byName:  make(map[string]*geodb.DB, len(dbs)),
		snaps:   make(map[string]SnapshotInfo, len(dbs)),
		closers: closers,
	}
	g.refs.Store(1)
	for _, db := range dbs {
		g.byName[db.Name()] = db
		g.names = append(g.names, db.Name())
	}
	sort.Strings(g.names)
	h := fnv.New64a()
	for _, name := range g.names {
		db := g.byName[name]
		si := snapshotInfo(db)
		g.snaps[name] = si
		if si.BuildEpoch > g.epoch {
			g.epoch = si.BuildEpoch
		}
		info := databaseInfo(db)
		info.Snapshot = &si
		g.infos = append(g.infos, info)
		_, _ = h.Write([]byte(name))
		_, _ = h.Write([]byte{0})
		_, _ = h.Write([]byte(si.Generation))
		_, _ = h.Write([]byte{0})
	}
	g.id = fmt.Sprintf("%016x", h.Sum64())
	g.etag = `"` + g.id + `"`
	g.serve = newServedDBs(g.names, g.byName)
	return g
}

// acquire pins the generation for one request.
func (g *generation) acquire() { g.refs.Add(1) }

// release drops one pin and runs the closers when the last pin is gone.
// closeOnce guards the 0→1→0 bounce a racing acquire can cause: a reader
// that pinned a just-retired generation and lost the re-check drops it
// straight back to zero.
func (g *generation) release() {
	if g.refs.Add(-1) == 0 {
		g.closeOnce.Do(func() {
			for _, c := range g.closers {
				_ = c()
			}
		})
	}
}

// snapshotInfo derives the per-database identity block. Databases loaded
// from snapshots carry their file identity; in-memory builds get a
// content-derived fingerprint so the generation machinery treats every
// database uniformly.
func snapshotInfo(db *geodb.DB) SnapshotInfo {
	m := db.Meta()
	si := SnapshotInfo{
		Generation:   m.Generation,
		BuildEpoch:   m.BuildEpoch,
		SourceFormat: m.SourceFormat,
	}
	if m.Checksum != 0 {
		si.Checksum = fmt.Sprintf("%016x", m.Checksum)
	}
	if si.Generation == "" {
		si.Generation = fmt.Sprintf("%016x", db.Fingerprint())
	}
	if si.SourceFormat == "" {
		si.SourceFormat = "memory"
	}
	return si
}

// acquireGen pins the current generation. The re-check loop closes the
// load/swap race: if the generation moved between the load and the pin,
// the stale pin is dropped and the new generation is pinned instead, so
// a request can never probe a mapping whose closers already ran.
func (h *Handler) acquireGen() *generation {
	for {
		g := h.gen.Load()
		g.acquire()
		if h.gen.Load() == g {
			return g
		}
		g.release()
	}
}

// Swap atomically replaces the serving set with dbs. In-flight requests
// finish on the generation they started with; the old generation's
// closers (snapshot mapping releases) run only after its last reader
// drains. closers belong to the NEW generation and run when it is in
// turn swapped out and drained. Returns the new set-level generation id.
//
// With a snapshot archive configured (WithSnapshotArchive), the retired
// generation keeps its pin and moves into the archive instead, where
// ?asof= queries can still reach it; only generations evicted off the
// archive's tail are released.
func (h *Handler) Swap(dbs []*geodb.DB, closers ...func() error) string {
	g := newGeneration(dbs, closers)
	h.archiveMu.Lock()
	old := h.gen.Swap(g)
	archived := false
	var evicted []*generation
	// An empty generation (geoserve's boot state before the first
	// -snap-dir scan swaps real data in) can never answer a lookup;
	// archiving it would also shadow the real asof horizon, since its
	// zero epoch matches any asof.
	if h.archiveMax > 0 && len(old.names) > 0 {
		h.archive = append(h.archive, old)
		archived = true
		if n := len(h.archive) - h.archiveMax; n > 0 {
			evicted = append(evicted, h.archive[:n]...)
			h.archive = append(h.archive[:0], h.archive[n:]...)
		}
	}
	h.archiveMu.Unlock()
	h.metrics.swaps.Inc()
	h.bus.Publish("generation.swap",
		"from", old.id, "to", g.id, "databases", len(g.names))
	if !archived {
		old.release()
	}
	for _, e := range evicted {
		e.release()
	}
	return g.id
}

// acquireAsOf pins the newest generation whose build epoch is at or
// before asof — the current one or an archived one, later epochs (and,
// on epoch ties, later retirements) winning. nil means every reachable
// generation is newer than asof: the request predates the archive
// horizon.
//
// The scan holds archiveMu, which linearizes it against Swap: a
// generation seen in the archive or as current still holds its
// archive/handler pin (both are only dropped by a Swap that must first
// take this lock, or after it), so the acquire here can never pin a
// generation whose closers already ran.
func (h *Handler) acquireAsOf(asof int64) *generation {
	h.archiveMu.Lock()
	var best *generation
	for _, g := range h.archive {
		if g.epoch <= asof && (best == nil || g.epoch >= best.epoch) {
			best = g
		}
	}
	if g := h.gen.Load(); g.epoch <= asof && (best == nil || g.epoch >= best.epoch) {
		best = g
	}
	if best != nil {
		best.acquire()
	}
	h.archiveMu.Unlock()
	return best
}

// Generation returns the current set-level generation id — the value of
// the GenerationHeader on responses served right now.
func (h *Handler) Generation() string { return h.gen.Load().id }

// generationMiddleware stamps every response with the serving
// generation. Only the id string is read, so no pin is needed here; the
// handlers that probe databases pin via acquireGen.
func (h *Handler) generationMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(GenerationHeader, h.gen.Load().id)
		next.ServeHTTP(w, r)
	})
}

// notModified writes the generation-derived ETag and reports whether
// If-None-Match already holds it (the 304 short-circuit for pollers
// watching /v2/databases or /v2/stats for a generation flip).
func notModified(w http.ResponseWriter, r *http.Request, g *generation) bool {
	w.Header().Set("ETag", g.etag)
	inm := r.Header.Get("If-None-Match")
	if inm == "" {
		return false
	}
	for _, tok := range strings.Split(inm, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "*" || tok == g.etag || tok == "W/"+g.etag {
			w.WriteHeader(http.StatusNotModified)
			return true
		}
	}
	return false
}
