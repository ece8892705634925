// Package httpapi serves geolocation databases over HTTP, the way the
// commercial products the paper studies are consumed in practice
// (MaxMind's GeoIP2 Precision and IP2Location expose near-identical
// JSON lookup endpoints). It also provides the matching client, so the
// evaluation in internal/core can run unchanged against a remote
// database by wrapping the client in the geodb.Provider interface.
//
// The API has two generations. /v1 is the original one-address-per-
// request surface and is kept stable for existing consumers; /v2 is
// batch-first, sized for the paper's 1.64M-address Ark sweep, and adds
// introspection endpoints:
//
//	GET  /v1/databases           list served database names (stable)
//	GET  /v1/lookup?ip=A[&db=N]  look one address up (stable)
//	POST /v2/lookup              batch lookup: {"ips":[...],"db":N}
//	GET  /v2/databases           names, range counts, snapshot identity
//	GET  /v2/stats               request counters, latency quantiles, hit/miss
//	POST /v2/admin/reload        trigger a snapshot rescan (if armed)
//	GET  /healthz                liveness ("ok", or "draining" during shutdown)
//
// The server is generation-aware: the set of databases can be hot-
// swapped at runtime (Handler.Swap, driven by a Reloader watching a
// snapshot directory) with zero dropped requests — in-flight requests
// finish on the generation they started with, and a retired
// generation's backing snapshot mappings are released only after its
// last reader drains. Every response carries the serving generation in
// the X-Geodb-Generation header; /v2/databases and /v2/stats answer
// with an ETag derived from it and honor If-None-Match with 304, so a
// poller detects a flip in one cheap conditional request.
//
// Stability: /v1 is frozen — its routes, parameters and payload shapes
// are exactly the original one-address-per-request surface and carry no
// generation fields. All generation-aware additions live on /v2
// (additive, omitempty) and in response headers. The Client speaks /v2
// only, so /v1 is a server-side surface for external consumers.
//
// The server side threads every request through a middleware stack
// (panic recovery, request logging, metrics, timeouts, body-size caps);
// the Client adds retries with exponential backoff, per-request
// timeouts, and a bounded-concurrency BatchLookup. RemoteProvider
// combines the two into a geodb.Provider that prefetches batches
// through a worker pool, so remote evaluation runs at near-local
// throughput.
package httpapi

import (
	"encoding/json"
	"net/http"

	"routergeo/internal/geodb"
)

// RecordJSON is the wire form of one geolocation answer.
type RecordJSON struct {
	Country    string  `json:"country,omitempty"`
	City       string  `json:"city,omitempty"`
	Lat        float64 `json:"lat,omitempty"`
	Lon        float64 `json:"lon,omitempty"`
	Resolution string  `json:"resolution"`
	BlockBits  uint8   `json:"block_bits,omitempty"`
	Found      bool    `json:"found"`
}

func toJSON(rec geodb.Record, found bool) RecordJSON {
	if !found {
		return RecordJSON{Resolution: "none"}
	}
	return RecordJSON{
		Country:    rec.Country,
		City:       rec.City,
		Lat:        rec.Coord.Lat,
		Lon:        rec.Coord.Lon,
		Resolution: rec.Resolution.String(),
		BlockBits:  rec.BlockBits,
		Found:      true,
	}
}

// toRecord is toJSON's inverse, used by the client to rebuild a
// geodb.Record from the wire form.
func toRecord(rj RecordJSON) (geodb.Record, bool) {
	if !rj.Found {
		return geodb.Record{}, false
	}
	rec := geodb.Record{
		Country:   rj.Country,
		City:      rj.City,
		BlockBits: rj.BlockBits,
	}
	rec.Coord.Lat, rec.Coord.Lon = rj.Lat, rj.Lon
	switch rj.Resolution {
	case "city":
		rec.Resolution = geodb.ResolutionCity
	case "country":
		rec.Resolution = geodb.ResolutionCountry
	}
	return rec, true
}

// LookupResponse is the /v1/lookup payload.
type LookupResponse struct {
	IP      string                `json:"ip"`
	Results map[string]RecordJSON `json:"results"`
}

// BatchRequest is the POST /v2/lookup body. DB optionally restricts the
// lookup to one database; when empty every served database answers.
type BatchRequest struct {
	IPs []string `json:"ips"`
	DB  string   `json:"db,omitempty"`
}

// BatchEntry is one address's answer inside a BatchResponse. A
// malformed address carries its parse error here instead of failing the
// whole request.
type BatchEntry struct {
	IP      string                `json:"ip"`
	Error   string                `json:"error,omitempty"`
	Results map[string]RecordJSON `json:"results,omitempty"`
}

// BatchResponse is the POST /v2/lookup payload. Entries preserves the
// request order.
type BatchResponse struct {
	Entries []BatchEntry `json:"entries"`
}

// DatabaseInfo is one /v2/databases element: the name plus the range
// counts the paper's coverage analysis cares about, and the snapshot
// identity block the generation-aware /v2 surface added.
type DatabaseInfo struct {
	Name          string `json:"name"`
	Ranges        int    `json:"ranges"`
	CityRanges    int    `json:"city_ranges"`
	CountryRanges int    `json:"country_ranges"`
	// Snapshot identifies the exact database bytes being served. Always
	// present on servers of this version; older clients ignore it.
	Snapshot *SnapshotInfo `json:"snapshot,omitempty"`
}

// SnapshotInfo is the per-database identity block on /v2/databases and
// /v2/stats: which exact bytes answer lookups right now.
type SnapshotInfo struct {
	// Generation identifies the database bytes: the snapshot checksum in
	// hex for snapshot-loaded databases, a content fingerprint otherwise.
	Generation string `json:"generation"`
	// Checksum is the snapshot file checksum in hex; absent for
	// databases not loaded from a snapshot.
	Checksum string `json:"checksum,omitempty"`
	// BuildEpoch is the writer-recorded build time in unix seconds.
	BuildEpoch int64 `json:"build_epoch,omitempty"`
	// SourceFormat says where the database came from: "snapshot", "csv"
	// or "memory".
	SourceFormat string `json:"source_format,omitempty"`
}

// ReloadResponse is the POST /v2/admin/reload payload: whether a new
// generation was swapped in ("reloaded" / "unchanged") and the set-level
// generation id now serving.
type ReloadResponse struct {
	Status     string `json:"status"`
	Generation string `json:"generation"`
}

// ErrorResponse is the body of every non-200 JSON answer.
type ErrorResponse struct {
	Error string `json:"error"`
	// MaxBatch is set on 413 answers so clients can re-chunk.
	MaxBatch int `json:"max_batch,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding to a ResponseWriter cannot meaningfully recover; ignore the
	// error as net/http handlers conventionally do after headers are sent.
	_ = json.NewEncoder(w).Encode(v)
}
