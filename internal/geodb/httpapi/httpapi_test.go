package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"routergeo/internal/geo"
	"routergeo/internal/geodb"
	"routergeo/internal/ipx"
)

func testDBs(t testing.TB) []*geodb.DB {
	t.Helper()
	mk := func(name, cc, city string) *geodb.DB {
		b := geodb.NewBuilder(name)
		rec := geodb.Record{Country: cc, Resolution: geodb.ResolutionCountry, BlockBits: 16}
		if city != "" {
			rec.City = city
			rec.Coord = geo.Coordinate{Lat: 32.7, Lon: -96.8}
			rec.Resolution = geodb.ResolutionCity
		}
		b.AddPrefix(0, ipx.MustParsePrefix("10.0.0.0/16"), rec)
		db, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	return []*geodb.DB{mk("alpha", "US", "Dallas"), mk("beta", "DE", "")}
}

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewHandler(testDBs(t)))
	t.Cleanup(srv.Close)
	return srv
}

func TestHealthz(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestDatabasesEndpoint(t *testing.T) {
	srv := testServer(t)
	var names []string
	if err := getJSON(srv.URL+"/v1/databases", &names); err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "alpha" || names[1] != "beta" {
		t.Errorf("Databases = %v", names)
	}
}

func TestLookupAll(t *testing.T) {
	srv := testServer(t)
	var resp LookupResponse
	if err := getJSON(srv.URL+"/v1/lookup?ip=10.0.1.2", &resp); err != nil {
		t.Fatal(err)
	}
	if resp.IP != "10.0.1.2" || len(resp.Results) != 2 {
		t.Fatalf("response = %+v", resp)
	}
	a := resp.Results["alpha"]
	if !a.Found || a.City != "Dallas" || a.Resolution != "city" || a.BlockBits != 16 {
		t.Errorf("alpha = %+v", a)
	}
	b := resp.Results["beta"]
	if !b.Found || b.Country != "DE" || b.Resolution != "country" {
		t.Errorf("beta = %+v", b)
	}
}

func TestLookupMiss(t *testing.T) {
	srv := testServer(t)
	var resp LookupResponse
	if err := getJSON(srv.URL+"/v1/lookup?ip=192.0.2.1", &resp); err != nil {
		t.Fatal(err)
	}
	for name, r := range resp.Results {
		if r.Found {
			t.Errorf("%s unexpectedly found %+v", name, r)
		}
		if r.Resolution != "none" {
			t.Errorf("%s miss resolution = %q", name, r.Resolution)
		}
	}
}

func TestLookupErrors(t *testing.T) {
	srv := testServer(t)
	for _, tc := range []struct {
		url  string
		want int
	}{
		{"/v1/lookup", http.StatusBadRequest},
		{"/v1/lookup?ip=banana", http.StatusBadRequest},
		{"/v1/lookup?ip=10.0.0.1&db=nope", http.StatusNotFound},
	} {
		resp, err := http.Get(srv.URL + tc.url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET %s = %d, want %d", tc.url, resp.StatusCode, tc.want)
		}
	}
}

func TestSingleDBQuery(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/v1/lookup?ip=10.0.0.1&db=alpha")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out LookupResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 {
		t.Fatalf("results = %+v", out.Results)
	}
	if _, ok := out.Results["alpha"]; !ok {
		t.Error("alpha missing from single-db query")
	}
}

func TestClientAsProvider(t *testing.T) {
	// The remote client must behave like a local geodb.Provider, so the
	// core evaluation runs unchanged over the wire.
	srv := testServer(t)
	remote := &Client{BaseURL: srv.URL, DB: "alpha"}
	local := testDBs(t)[0]

	for _, ip := range []string{"10.0.0.1", "10.0.255.255", "192.0.2.1"} {
		a := ipx.MustParseAddr(ip)
		lr, lok := local.Lookup(a)
		rr, rok := remote.Lookup(a)
		if lok != rok {
			t.Fatalf("%s: found %v locally, %v remotely", ip, lok, rok)
		}
		if lok && (lr.Country != rr.Country || lr.City != rr.City ||
			lr.Resolution != rr.Resolution || lr.BlockBits != rr.BlockBits) {
			t.Fatalf("%s: local %+v != remote %+v", ip, lr, rr)
		}
	}
}

func TestClientWithoutDBPinned(t *testing.T) {
	srv := testServer(t)
	c := &Client{BaseURL: srv.URL}
	if _, ok := c.Lookup(ipx.MustParseAddr("10.0.0.1")); ok {
		t.Error("Provider lookup without a pinned database must miss")
	}
}

func TestClientServerDown(t *testing.T) {
	c := &Client{BaseURL: "http://127.0.0.1:1", DB: "alpha"}
	if _, ok := c.Lookup(ipx.MustParseAddr("10.0.0.1")); ok {
		t.Error("lookup against a dead server must miss, not panic")
	}
}
