package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"routergeo/internal/ipx"
)

// The client side of POST /v2/lookup. A sweep's answer is one entry per
// address, and the server writes every record from bytes it marshaled
// once per generation (see servedDB), so the few hundred distinct
// records of a 10,000-address answer arrive as equal bytes over and
// over. The scanner walks exactly the shape appendEntries writes,
// interns each record by its raw bytes in a table that lives for one
// response, and decodes each distinct record once with json.Unmarshal.
// Anything else — an escape in an address or database name, an unknown
// key, a per-entry error, whitespace, a truncated body — goes to
// encoding/json over the same bytes, which owns full JSON semantics and
// error values.

// lookupAnswer is one decoded /v2/lookup answer. Entry i's result from
// database dbs[j] is recs[cells[i*len(dbs)+j]]; entries is set instead
// when the encoding/json fallback decoded the body.
type lookupAnswer struct {
	body     bytes.Buffer
	fallback bool
	entries  []BatchEntry

	n      int
	ips    []int32 // entry i's address is body[ips[2i]:ips[2i+1]]
	dbs    []string
	recs   []RecordJSON
	cells  []int32
	intern map[string]int32
}

// lookupAnswerPool recycles answers, read buffer included, across
// requests and clients. The chunk loop gets one per worker; callers
// copy every result out before the worker's next request.
var lookupAnswerPool = sync.Pool{New: func() any {
	return &lookupAnswer{intern: make(map[string]int32)}
}}

// read reads r to EOF into the pooled buffer and decodes it. When the
// read fails, the result is what a json.Decoder reading the stream
// returned: an answer complete before the failure decodes, a syntax
// error before it is reported, and otherwise the read error is.
func (a *lookupAnswer) read(r io.Reader) error {
	a.body.Reset()
	_, rerr := a.body.ReadFrom(r)
	if rerr == nil && a.scan() {
		return nil
	}
	var resp BatchResponse
	err := json.NewDecoder(bytes.NewReader(a.body.Bytes())).Decode(&resp)
	if rerr != nil && (err == io.EOF || err == io.ErrUnexpectedEOF) {
		return rerr
	}
	a.fallback, a.entries, a.n = true, resp.Entries, len(resp.Entries)
	return err
}

// scan decodes the body if it has exactly the shape the server writes:
//
//	{"entries":[{"ip":"A","results":{"DB":{…},…}},…]}
//
// with every entry naming the same databases in the same order. Bytes
// after the closing brace are ignored, as json.Decoder ignores what
// follows the first value. false leaves the body to the fallback.
func (a *lookupAnswer) scan() bool {
	b := a.body.Bytes()
	a.fallback, a.entries, a.n = false, nil, 0
	a.ips, a.dbs, a.recs, a.cells = a.ips[:0], a.dbs[:0], a.recs[:0], a.cells[:0]
	clear(a.intern)
	i, ok := lit(b, 0, `{"entries":[`)
	if !ok || len(b) > math.MaxInt32 {
		return false
	}
	for {
		if i, ok = lit(b, i, `{"ip":`); !ok {
			return false
		}
		ip, rest, ok := scanPlainString(b, i)
		if !ok || !utf8.Valid(ip) {
			return false
		}
		a.ips = append(a.ips, int32(i+1), int32(rest-1))
		if i, ok = lit(b, rest, `,"results":{`); !ok {
			return false
		}
		for j := 0; ; j++ {
			key, rest, ok := scanPlainString(b, i)
			if !ok || !a.column(j, key) {
				return false
			}
			if i, ok = lit(b, rest, `:`); !ok {
				return false
			}
			var cell int32
			if i, cell, ok = a.record(b, i); !ok {
				return false
			}
			a.cells = append(a.cells, cell)
			if i < len(b) && b[i] == ',' {
				i++
				continue
			}
			if a.n > 0 && j != len(a.dbs)-1 {
				return false
			}
			break
		}
		if i, ok = lit(b, i, `}}`); !ok {
			return false
		}
		a.n++
		if i < len(b) && b[i] == ',' {
			i++
			continue
		}
		_, ok = lit(b, i, `]}`)
		return ok
	}
}

// column checks that key names database j: the first entry defines
// the columns (each name once), every later entry must repeat them.
func (a *lookupAnswer) column(j int, key []byte) bool {
	if a.n > 0 {
		return j < len(a.dbs) && string(key) == a.dbs[j]
	}
	if !utf8.Valid(key) {
		return false
	}
	for _, name := range a.dbs {
		if string(key) == name {
			return false
		}
	}
	a.dbs = append(a.dbs, string(key))
	return true
}

// record interns the flat JSON object at b[i:], returning the index
// after it and its slot in a.recs. Its extent only has to be right for
// valid JSON: json.Unmarshal checks the raw bytes, and a record it
// rejects, or a nested value, sends the body to the fallback.
func (a *lookupAnswer) record(b []byte, i int) (int, int32, bool) {
	start := i
	if i >= len(b) || b[i] != '{' {
		return i, 0, false
	}
	for i++; i < len(b); i++ {
		switch b[i] {
		case '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
		case '{', '[':
			return i, 0, false
		case '}':
			raw := b[start : i+1]
			if k, ok := a.intern[string(raw)]; ok {
				return i + 1, k, true
			}
			k := int32(len(a.recs))
			a.recs = append(a.recs, RecordJSON{})
			if json.Unmarshal(raw, &a.recs[k]) != nil {
				return i, 0, false
			}
			a.intern[string(raw)] = k
			return i + 1, k, true
		}
	}
	return i, 0, false
}

// lit matches the literal s at b[i:].
func lit(b []byte, i int, s string) (int, bool) {
	if len(b)-i < len(s) || string(b[i:i+len(s)]) != s {
		return i, false
	}
	return i + len(s), true
}

// result is entry i's answer from database db and its per-entry error
// text. A database the entry does not list reads as a miss.
func (a *lookupAnswer) result(i int, db string) (RecordJSON, string) {
	if a.fallback {
		e := &a.entries[i]
		return e.Results[db], e.Error
	}
	for j, name := range a.dbs {
		if name == db {
			return a.recs[a.cells[i*len(a.dbs)+j]], ""
		}
	}
	return RecordJSON{}, ""
}

// entry rebuilds entry i as encoding/json would have decoded it. sent is
// the address the request carried; the entry reuses it when the server
// echoed it unchanged.
func (a *lookupAnswer) entry(i int, sent string) BatchEntry {
	if a.fallback {
		return a.entries[i]
	}
	e := BatchEntry{IP: sent, Results: make(map[string]RecordJSON, len(a.dbs))}
	if ip := a.body.Bytes()[a.ips[2*i]:a.ips[2*i+1]]; string(ip) != sent {
		e.IP = string(ip)
	}
	for j, name := range a.dbs {
		e.Results[name] = a.recs[a.cells[i*len(a.dbs)+j]]
	}
	return e
}

// appendLookupRequest appends the POST /v2/lookup body for addrs pinned
// to database db: the bytes json.Marshal(BatchRequest{IPs: …, DB: db})
// writes for their dotted quads, without formatting each address into a
// string first.
func appendLookupRequest(dst []byte, addrs []ipx.Addr, db string) []byte {
	dst = append(dst, `{"ips":[`...)
	for i, a := range addrs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '"')
		dst = strconv.AppendUint(dst, uint64(a>>24), 10)
		for shift := 16; shift >= 0; shift -= 8 {
			dst = append(dst, '.')
			dst = strconv.AppendUint(dst, uint64(a>>shift&0xff), 10)
		}
		dst = append(dst, '"')
	}
	dst = append(dst, `],"db":`...)
	dst = append(dst, mustJSON(db)...)
	return append(dst, '}')
}
