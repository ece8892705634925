package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"routergeo/internal/geo"
	"routergeo/internal/geodb"
	"routergeo/internal/ipx"
)

// decodeDBs serves the test databases plus one whose record strings
// need JSON escapes and non-ASCII bytes, which the scanner must carry
// through to json.Unmarshal intact.
func decodeDBs(t testing.TB) []*geodb.DB {
	t.Helper()
	b := geodb.NewBuilder("gamma")
	b.AddPrefix(0, ipx.MustParsePrefix("10.0.1.0/24"), geodb.Record{
		Country: "BR", City: `São "Sé} <&>\`, Coord: geo.Coordinate{Lat: -23.55, Lon: -46.63},
		Resolution: geodb.ResolutionCity, BlockBits: 24,
	})
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return append(testDBs(t), db)
}

// serverBodies answers a set of /v2/lookup requests from a real handler:
// pinned and all-database answers with hits, misses and the escaped
// record, and answers carrying malformed-address entries.
func serverBodies(t testing.TB) [][]byte {
	t.Helper()
	h := NewHandler(decodeDBs(t))
	reqs := []string{
		`{"ips":["10.0.0.1"],"db":"alpha"}`,
		`{"ips":["192.0.2.7"],"db":"alpha"}`,
		`{"ips":["10.0.0.1","10.0.1.2","192.0.2.7","10.0.0.1"]}`,
		`{"ips":["10.0.1.9","10.0.1.10"],"db":"gamma"}`,
		`{"ips":["10.0.0.1","banana","10.0.0.2"],"db":"beta"}`,
		`{"ips":["not-an-ip","1.2.3.4.5"]}`,
	}
	var out [][]byte
	for _, r := range reqs {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/lookup", strings.NewReader(r)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", r, rec.Code)
		}
		out = append(out, rec.Body.Bytes())
	}
	return out
}

// stdlibEntries decodes b the way the client did before the scanner.
func stdlibEntries(b []byte) ([]BatchEntry, error) {
	var resp BatchResponse
	err := json.NewDecoder(bytes.NewReader(b)).Decode(&resp)
	return resp.Entries, err
}

// scannedEntries rebuilds every entry of a scanned answer.
func scannedEntries(a *lookupAnswer) []BatchEntry {
	out := make([]BatchEntry, a.n)
	for i := range out {
		out[i] = a.entry(i, "")
	}
	return out
}

// TestLookupAnswerScansServerOutput pins the scanner to what the server
// writes: every answer without a malformed-address entry is scanned,
// not left to the fallback, and both paths yield encoding/json's
// entries.
func TestLookupAnswerScansServerOutput(t *testing.T) {
	for _, b := range serverBodies(t) {
		want, err := stdlibEntries(b)
		if err != nil {
			t.Fatal(err)
		}
		a := &lookupAnswer{intern: map[string]int32{}}
		if err := a.read(bytes.NewReader(b)); err != nil {
			t.Fatalf("read(%s): %v", b, err)
		}
		if hasError := bytes.Contains(b, []byte(`"error":`)); a.fallback != hasError {
			t.Errorf("read(%s) fell back: %v, want %v", b, a.fallback, hasError)
		}
		got := make([]BatchEntry, a.n)
		for i := range got {
			got[i] = a.entry(i, want[i].IP)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("read(%s) = %+v, want %+v", b, got, want)
		}
	}
}

// TestLookupAnswerInternsRecords checks that equal record bytes decode
// once: a 1,000-address answer over two records holds two.
func TestLookupAnswerInternsRecords(t *testing.T) {
	ips := make([]string, 1000)
	for i := range ips {
		ips[i] = ipx.Addr(0x0a000000 + uint32(i)*97).String() // 10.0.0.0/16 hits, then misses
	}
	body, _ := json.Marshal(BatchRequest{IPs: ips, DB: "alpha"})
	rec := httptest.NewRecorder()
	NewHandler(testDBs(t)).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/lookup", bytes.NewReader(body)))
	a := &lookupAnswer{intern: map[string]int32{}}
	if err := a.read(rec.Body); err != nil || a.fallback {
		t.Fatalf("scanner refused a plain pinned answer (read error %v)", err)
	}
	if a.n != len(ips) || len(a.recs) != 2 || len(a.dbs) != 1 {
		t.Errorf("entries %d, records %d, databases %d; want %d, 2, 1", a.n, len(a.recs), len(a.dbs), len(ips))
	}
}

// failingReader serves b, then fails with err.
type failingReader struct {
	b   []byte
	err error
}

func (f *failingReader) Read(p []byte) (int, error) {
	if len(f.b) == 0 {
		return 0, f.err
	}
	n := copy(p, f.b)
	f.b = f.b[n:]
	return n, nil
}

// TestLookupAnswerReadErrorsMatchDecoder checks that reading to EOF
// first keeps what a json.Decoder on the stream returned: a complete
// answer before a failed read decodes, a syntax error before it wins,
// and otherwise the read error itself comes back.
func TestLookupAnswerReadErrorsMatchDecoder(t *testing.T) {
	full := serverBodies(t)[2]
	boom := errors.New("connection reset")
	cases := []struct {
		name string
		b    []byte
		err  error
	}{
		{"complete then failed read", full, boom},
		{"truncated, clean EOF", full[:64], io.EOF},
		{"truncated, failed read", full[:64], io.ErrUnexpectedEOF},
		{"syntax error then failed read", []byte(`{"entries":[}`), boom},
		{"empty, clean EOF", nil, io.EOF},
		{"empty, failed read", nil, boom},
		{"trailing garbage", append(append([]byte{}, full...), "}{"...), io.EOF},
		{"leading whitespace", append([]byte(" \n"), full...), io.EOF},
	}
	for _, tc := range cases {
		var want BatchResponse
		wantErr := json.NewDecoder(&failingReader{tc.b, tc.err}).Decode(&want)
		a := &lookupAnswer{intern: map[string]int32{}}
		err := a.read(&failingReader{tc.b, tc.err})
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Errorf("%s: err = %v, want %v", tc.name, err, wantErr)
			continue
		}
		if err == nil {
			if got := scannedOrFallback(a); !reflect.DeepEqual(got, want.Entries) {
				t.Errorf("%s: entries = %+v, want %+v", tc.name, got, want.Entries)
			}
		}
	}
}

func scannedOrFallback(a *lookupAnswer) []BatchEntry {
	if a.fallback {
		return a.entries
	}
	return scannedEntries(a)
}

// FuzzV2LookupDecode pins the scanner to encoding/json: whenever it
// accepts a body, the stdlib decoder accepts the same bytes and yields
// the same entries — address, error text and every database's record.
// The corpus is real handler output and truncations of it.
func FuzzV2LookupDecode(f *testing.F) {
	for _, b := range serverBodies(f) {
		f.Add(b)
		for _, cut := range []int{1, 12, len(b) / 3, len(b) / 2, len(b) - 4, len(b) - 2} {
			f.Add(b[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		a := &lookupAnswer{intern: map[string]int32{}}
		if a.read(bytes.NewReader(b)) != nil || a.fallback {
			return
		}
		want, err := stdlibEntries(b)
		if err != nil {
			t.Fatalf("scanner accepted %q, encoding/json rejects it: %v", b, err)
		}
		if got := scannedEntries(a); !reflect.DeepEqual(got, want) {
			t.Fatalf("scanner read %q as %+v, encoding/json as %+v", b, got, want)
		}
		for i := range want {
			for db, rj := range want[i].Results {
				if got, errText := a.result(i, db); got != rj || errText != "" {
					t.Fatalf("result(%d, %q) = %+v %q, want %+v", i, db, got, errText, rj)
				}
			}
		}
	})
}

// TestAppendLookupRequestMatchesMarshal checks the request formatter
// against json.Marshal of the string form.
func TestAppendLookupRequestMatchesMarshal(t *testing.T) {
	addrs := []ipx.Addr{0, 0xffffffff, ipx.MustParseAddr("10.0.1.2"), ipx.MustParseAddr("192.0.2.255")}
	for _, db := range []string{"alpha", `odd "<db>"`} {
		ips := make([]string, len(addrs))
		for i, a := range addrs {
			ips[i] = a.String()
		}
		want, err := json.Marshal(BatchRequest{IPs: ips, DB: db})
		if err != nil {
			t.Fatal(err)
		}
		if got := appendLookupRequest(nil, addrs, db); !bytes.Equal(got, want) {
			t.Errorf("db %q: got %s, want %s", db, got, want)
		}
	}
}
