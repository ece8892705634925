package httpapi

import (
	"encoding/json"
	"io"
	"sync"

	"routergeo/internal/geodb"
	"routergeo/internal/ipx"
)

// The POST /v2/lookup hot path. The goal is zero allocations per
// request in the steady state for well-formed batches: the body buffer,
// the parsed views into it, the address and index tables, the radix
// scratch and the response buffer all live in a pooled v2State, and the
// per-record response JSON is marshaled once per generation (see
// servedDB) so answering an address is two appends of cached bytes.
// Malformed input drops to encoding/json for exact stdlib semantics and
// error text; those paths may allocate freely.

// servedDB is one database of a generation prepared for the /v2/lookup
// serializer: the sorted serving position (JSON objects of map-typed
// results historically marshaled with sorted keys, so the cache keeps
// that order), the ready `"name":` key bytes and one marshaled
// RecordJSON per entry of the deduplicated record table.
type servedDB struct {
	name    string
	db      *geodb.DB
	keyJSON []byte
	recJSON [][]byte
}

// missJSON is the cached wire form of a lookup miss.
var missJSON = mustJSON(toJSON(geodb.Record{}, false))

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// newServedDBs builds the serializer cache for one generation. Marshal
// cost is per record-table entry (deduplicated), paid once per swap.
func newServedDBs(names []string, byName map[string]*geodb.DB) []servedDB {
	serve := make([]servedDB, 0, len(names))
	for _, name := range names {
		db := byName[name]
		recs := db.Records()
		sd := servedDB{
			name:    name,
			db:      db,
			keyJSON: mustJSON(name),
			recJSON: make([][]byte, len(recs)),
		}
		sd.keyJSON = append(sd.keyJSON, ':')
		for i := range recs {
			sd.recJSON[i] = mustJSON(toJSON(recs[i], true))
		}
		serve = append(serve, sd)
	}
	return serve
}

// v2State is the pooled per-request scratch for POST /v2/lookup.
type v2State struct {
	body  []byte     // request body
	ips   [][]byte   // views into body (or copies on the fallback path)
	addrs []ipx.Addr // parsed addresses; undefined where errs is set
	errs  []string   // per-entry parse error, "" for valid entries
	sel   []int      // selected databases, as positions in generation.serve
	idxs  [][]int32  // per selected database: record index or -1
	hits  []int64    // per selected database: hit tally
	sc    ipx.BatchScratch
	out   []byte // response buffer
}

// v2StatePool recycles request states. Get inline at the use site and
// return through putV2State; the poolescape lint rule keeps pooled
// state from outliving its request.
var v2StatePool = sync.Pool{New: func() any { return new(v2State) }}

func putV2State(st *v2State) { v2StatePool.Put(st) }

// growN returns s resized to n, reallocating only when capacity is
// short.
//
//geolint:hotpath
func growN[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// errBodyTooLarge reports a request body over the configured cap.
type bodyTooLargeError struct{}

func (bodyTooLargeError) Error() string { return "request body too large" }

// readBody reads rc into the pooled body buffer, failing once the size
// cap is exceeded (it reads at most max+1 bytes to detect that).
//
//geolint:hotpath
func (st *v2State) readBody(rc io.Reader, max int64) ([]byte, error) {
	b := st.body[:0]
	if cap(b) == 0 {
		b = make([]byte, 0, 4096)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		lim := cap(b)
		if over := int64(lim) - (max + 1); over > 0 {
			lim -= int(over)
		}
		n, err := rc.Read(b[len(b):lim])
		b = b[:len(b)+n]
		st.body = b
		if int64(len(b)) > max {
			return nil, bodyTooLargeError{}
		}
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// skipWS advances past JSON whitespace.
//
//geolint:hotpath
func skipWS(b []byte, i int) int {
	for i < len(b) {
		switch b[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// scanPlainString scans a JSON string with no escapes at b[i:],
// returning its contents and the index after the closing quote. Any
// backslash or control character bails to the stdlib fallback, which
// owns full JSON semantics.
//
//geolint:hotpath
func scanPlainString(b []byte, i int) (s []byte, rest int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, i, false
	}
	i++
	start := i
	for i < len(b) {
		c := b[i]
		if c == '"' {
			return b[start:i], i + 1, true
		}
		if c == '\\' || c < 0x20 {
			return nil, i, false
		}
		i++
	}
	return nil, i, false
}

// parseBatchRequest scans a {"ips":[...],"db":"..."} body into st.ips
// and db without allocating, all views into the body buffer. ok ==
// false means the body needs the encoding/json fallback — it may still
// be valid JSON (escapes, unknown keys, non-string members) or garbage;
// the fallback decides and produces the canonical error.
//
//geolint:hotpath
func (st *v2State) parseBatchRequest(b []byte) (db []byte, ok bool) {
	st.ips = st.ips[:0]
	i := skipWS(b, 0)
	if i >= len(b) || b[i] != '{' {
		return nil, false
	}
	i = skipWS(b, i+1)
	if i < len(b) && b[i] == '}' {
		return nil, true // {} — rejected later as an empty ips list
	}
	for {
		key, rest, sok := scanPlainString(b, i)
		if !sok {
			return nil, false
		}
		i = skipWS(b, rest)
		if i >= len(b) || b[i] != ':' {
			return nil, false
		}
		i = skipWS(b, i+1)
		switch string(key) {
		case "ips":
			if i >= len(b) || b[i] != '[' {
				return nil, false
			}
			st.ips = st.ips[:0] // duplicate keys: last one wins, like stdlib
			i = skipWS(b, i+1)
			if i < len(b) && b[i] == ']' {
				i++
				break
			}
			for {
				ip, rest, sok := scanPlainString(b, i)
				if !sok {
					return nil, false
				}
				st.ips = append(st.ips, ip)
				i = skipWS(b, rest)
				if i >= len(b) {
					return nil, false
				}
				if b[i] == ',' {
					i = skipWS(b, i+1)
					continue
				}
				if b[i] == ']' {
					i++
					break
				}
				return nil, false
			}
		case "db":
			s, rest, sok := scanPlainString(b, i)
			if !sok {
				return nil, false
			}
			db, i = s, rest
		default:
			return nil, false
		}
		i = skipWS(b, i)
		if i >= len(b) {
			return nil, false
		}
		if b[i] == ',' {
			i = skipWS(b, i+1)
			continue
		}
		if b[i] == '}' {
			// Trailing bytes after the object are ignored, exactly as the
			// json.Decoder this path replaced stopped after one value.
			return db, true
		}
		return nil, false
	}
}

// setIPsFromStrings loads the fallback-decoded request into the state.
func (st *v2State) setIPsFromStrings(ips []string) {
	st.ips = st.ips[:0]
	for _, ip := range ips {
		st.ips = append(st.ips, []byte(ip))
	}
}

// parseQuad parses a canonical dotted-quad IPv4 address: four decimal
// octets 0..255, no leading zeros — exactly the IPv4 grammar
// ipx.ParseAddr accepts. ok == false sends the entry to ipx.ParseAddr
// for the authoritative verdict and error text.
//
//geolint:hotpath
func parseQuad(b []byte) (ipx.Addr, bool) {
	var a uint32
	i := 0
	for oct := 0; oct < 4; oct++ {
		if oct > 0 {
			if i >= len(b) || b[i] != '.' {
				return 0, false
			}
			i++
		}
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return 0, false
		}
		v := uint32(b[i] - '0')
		i++
		if v != 0 {
			for d := 0; d < 2 && i < len(b) && b[i] >= '0' && b[i] <= '9'; d++ {
				v = v*10 + uint32(b[i]-'0')
				i++
			}
		}
		if v > 255 {
			return 0, false
		}
		a = a<<8 | v
	}
	if i != len(b) {
		return 0, false
	}
	return ipx.Addr(a), true
}

// resolveBatch fills st.idxs[j] for every selected database with one
// batch-kernel call each. A server gets its parallelism from concurrent
// requests, not from splitting one request across goroutines.
//
//geolint:hotpath
func (st *v2State) resolveBatch(serve []servedDB, sel []int) {
	n := len(st.addrs)
	st.idxs = growN(st.idxs, len(sel))
	for j, si := range sel {
		st.idxs[j] = growN(st.idxs[j], n)
		serve[si].db.LookupIndexBatch(st.addrs, st.idxs[j], &st.sc)
	}
}

// appendEntries serializes the batch answer into st.out: cached record
// bytes for hits and misses, a stdlib-marshaled BatchEntry for the rare
// per-entry parse failure (whose input needs real JSON escaping).
//
//geolint:hotpath
func (st *v2State) appendEntries(serve []servedDB, sel []int) {
	out := append(st.out[:0], `{"entries":[`...)
	st.hits = growN(st.hits, len(sel))
	for j := range st.hits {
		st.hits[j] = 0
	}
	for i, ip := range st.ips {
		if i > 0 {
			out = append(out, ',')
		}
		if st.errs[i] != "" {
			//lint:ignore hotalloc cold sub-path: only entries that failed address parsing reach stdlib marshaling (their input needs real JSON escaping); well-formed batches never allocate here, as TestV2LookupZeroAllocSteadyState checks
			eb := mustJSON(BatchEntry{IP: string(ip), Error: st.errs[i]})
			out = append(out, eb...)
			continue
		}
		out = append(out, `{"ip":"`...)
		out = append(out, ip...)
		if len(sel) == 0 {
			out = append(out, `"}`...)
			continue
		}
		out = append(out, `","results":{`...)
		for j := range sel {
			if j > 0 {
				out = append(out, ',')
			}
			sd := &serve[sel[j]]
			out = append(out, sd.keyJSON...)
			if k := st.idxs[j][i]; k >= 0 {
				out = append(out, sd.recJSON[k]...)
				st.hits[j]++
			} else {
				out = append(out, missJSON...)
			}
		}
		out = append(out, `}}`...)
	}
	out = append(out, "]}\n"...)
	st.out = out
}
