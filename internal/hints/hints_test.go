package hints

import (
	"cmp"
	"strings"
	"testing"

	"routergeo/internal/gazetteer"
)

func TestDictionaryTokensResolve(t *testing.T) {
	g := gazetteer.New()
	d := NewDictionary(g)
	if d.Size() < 300 {
		t.Errorf("dictionary has only %d tokens", d.Size())
	}
	// IATA tokens.
	dfw, ok := d.Lookup("DFW")
	if !ok || dfw.Name != "Dallas" {
		t.Errorf("Lookup(DFW) = %+v, %v", dfw, ok)
	}
	// Every city with an IATA code must resolve through it.
	for _, c := range g.Cities() {
		if c.IATA == "" {
			continue
		}
		got, ok := d.Lookup(c.IATA)
		if !ok || got.Name != c.Name || got.Country != c.Country {
			t.Errorf("IATA %s resolves to %v, want %s/%s", c.IATA, got, c.Country, c.Name)
		}
	}
}

func TestSiteCodesRoundTrip(t *testing.T) {
	g := gazetteer.New()
	d := NewDictionary(g)
	assigned := 0
	for _, c := range g.Cities() {
		code := d.SiteCode(c)
		if code == "" {
			continue
		}
		assigned++
		got, ok := d.Lookup(code)
		if !ok || got.Name != c.Name || got.Country != c.Country {
			t.Errorf("site code %q resolves to %v, want %s/%s", code, got, c.Country, c.Name)
		}
	}
	// Nearly every city should receive a collision-free site code.
	if frac := float64(assigned) / float64(len(g.Cities())); frac < 0.95 {
		t.Errorf("only %.0f%% of cities have site codes", frac*100)
	}
}

func TestAmbiguousCityNamesDropped(t *testing.T) {
	g := gazetteer.New()
	d := NewDictionary(g)
	// "birmingham" exists in US and GB; the bare name must not resolve
	// (unless an IATA/site code happens to spell it, which it does not).
	if c, ok := d.Lookup("birmingham"); ok {
		t.Errorf("ambiguous name resolved to %v", c)
	}
	// Unambiguous names resolve.
	if c, ok := d.Lookup("stuttgart"); !ok || c.Country != "DE" {
		t.Errorf("Lookup(stuttgart) = %v, %v", c, ok)
	}
}

func TestBestTokenAlwaysDecodes(t *testing.T) {
	g := gazetteer.New()
	d := NewDictionary(g)
	missing := 0
	for _, c := range g.Cities() {
		tok, ok := d.BestToken(c)
		if !ok {
			missing++
			continue
		}
		got, ok := d.Lookup(tok)
		if !ok || got.Name != c.Name || got.Country != c.Country {
			t.Errorf("BestToken(%s/%s) = %q resolves to %v", c.Country, c.Name, tok, got)
		}
	}
	if missing > 2 {
		t.Errorf("%d cities have no usable token", missing)
	}
}

func TestDecodeOperatorNames(t *testing.T) {
	g := gazetteer.New()
	d := NewDecoder(NewDictionary(g))
	tests := []struct {
		host   string
		city   string
		domain string
	}{
		{"be2390.ccr41.jfk02.atlas.cogentco.com", "New York", "cogentco.com"},
		{"ae-5.r23.dfw09.us.bb.gin.ntt.net", "Dallas", "ntt.net"},
		{"xe-3.rome7.fco.seabone.net", "Rome", "seabone.net"},
		{"core2.atl009.pnap.net", "Atlanta", "pnap.net"},
		{"clt01-rtr2.peak10.net", "Charlotte", "peak10.net"},
		{"edge1.sbp.digitalwest.net", "San Luis Obispo", "digitalwest.net"},
		{"stuttgart-rtr1.belwue.de", "Stuttgart", "belwue.de"},
		{"r7.fra02.as64599.net", "Frankfurt", ""},
	}
	for _, tt := range tests {
		city, domain, ok := d.Decode(tt.host)
		if !ok {
			t.Errorf("Decode(%s) failed", tt.host)
			continue
		}
		if city.Name != tt.city {
			t.Errorf("Decode(%s) = %s, want %s", tt.host, city.Name, tt.city)
		}
		if domain != tt.domain {
			t.Errorf("Decode(%s) domain = %q, want %q", tt.host, domain, tt.domain)
		}
	}
}

func TestDecodeRejectsHintFreeNames(t *testing.T) {
	g := gazetteer.New()
	d := NewDecoder(NewDictionary(g))
	for _, host := range []string{
		"be77.ccr12.core03.atlas.cogentco.com",
		"ae-1.r05.core02.us.bb.gin.ntt.net",
		"xe-2.trunk1234.bb.seabone.net",
		"core1.pod042.pnap.net",
		"mgmt03-rtr1.peak10.net",
		"edge9.mgmt.digitalwest.net",
		"bw-rtr7.belwue.de",
		"r12.pop07.as64600.net",
		"ip-10-1-2-3.as64601.net",
		"ip-4-4-4-4.ntt.net",
		"localhost",
		"",
	} {
		if city, _, ok := d.Decode(host); ok {
			t.Errorf("Decode(%q) unexpectedly resolved to %s/%s", host, city.Country, city.Name)
		}
	}
}

func TestDecodeCaseAndTrailingDot(t *testing.T) {
	g := gazetteer.New()
	d := NewDecoder(NewDictionary(g))
	city, _, ok := d.Decode("CORE2.ATL009.PNAP.NET.")
	if !ok || city.Name != "Atlanta" {
		t.Errorf("case/dot-insensitive decode failed: %v %v", city, ok)
	}
}

func TestGroundTruthDomainsAreSeven(t *testing.T) {
	ds := GroundTruthDomains()
	if len(ds) != 7 {
		t.Fatalf("got %d ground-truth domains", len(ds))
	}
	for _, d := range ds {
		if !strings.Contains(d, ".") {
			t.Errorf("bad domain %q", d)
		}
	}
}

func TestStripDigits(t *testing.T) {
	tests := []struct{ in, want string }{
		{"dfw09", "dfw"}, {"abc", "abc"}, {"123", ""}, {"", ""}, {"a1b2", "a1b"},
	}
	for _, tt := range tests {
		if got := stripDigits(tt.in); got != tt.want {
			t.Errorf("stripDigits(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

// TestCollapseName checks the city-name token class, which rdns renders
// into belwue and seabone hostnames through Name: letters only, in
// lowercase.
func TestCollapseName(t *testing.T) {
	for in, want := range map[string]string{
		"San Luis Obispo": "sanluisobispo",
		"Cluj-Napoca":     "clujnapoca",
	} {
		if got := collapseName(in); got != want {
			t.Errorf("collapseName(%q) = %q, want %q", in, got, want)
		}
	}
	g := gazetteer.New()
	d := NewDictionary(g)
	for _, c := range g.Cities() {
		if got := d.Name(c); got == "" || got != collapseName(c.Name) {
			t.Errorf("Name(%s/%s) = %q, want %q", c.Country, c.Name, got, collapseName(c.Name))
		}
	}
}

// TestTokensMatchRecount recounts each city's tokens from the token
// table, keyed by (Country, Name): a token equal to the city's lowercase
// IATA code is its IATA token, one equal to its collapsed name is its
// name token, and any other is its site code. IATA, SiteCode and
// BestToken, which read tables indexed by CityID, must agree with the
// recount for every city.
func TestTokensMatchRecount(t *testing.T) {
	g := gazetteer.New()
	d := NewDictionary(g)
	type key = [2]string // Country, Name
	iata, site, name := map[key]string{}, map[key]string{}, map[key]string{}
	for tok, c := range d.byToken {
		k := key{c.Country, c.Name}
		switch tok {
		case strings.ToLower(c.IATA):
			iata[k] = tok
		case collapseName(c.Name):
			name[k] = tok
		default:
			if site[k] != "" {
				t.Fatalf("%s/%s has two site codes, %q and %q", c.Country, c.Name, site[k], tok)
			}
			site[k] = tok
		}
	}
	for _, c := range g.Cities() {
		k := key{c.Country, c.Name}
		if got := d.IATA(c); got != iata[k] {
			t.Errorf("IATA(%s/%s) = %q, recount %q", c.Country, c.Name, got, iata[k])
		}
		if got := d.SiteCode(c); got != site[k] {
			t.Errorf("SiteCode(%s/%s) = %q, recount %q", c.Country, c.Name, got, site[k])
		}
		want := cmp.Or(iata[k], site[k], name[k])
		if got, ok := d.BestToken(c); got != want || ok != (want != "") {
			t.Errorf("BestToken(%s/%s) = %q, %v; recount %q", c.Country, c.Name, got, ok, want)
		}
	}
}
