package geodb

import (
	"math/rand"
	"testing"

	"routergeo/internal/geo"
	"routergeo/internal/ipx"
)

func rec(cc, city string, res Resolution) Record {
	r := Record{Country: cc, City: city, Resolution: res}
	if res == ResolutionCity {
		r.Coord = geo.Coordinate{Lat: 1, Lon: 1}
	}
	return r
}

func TestRecordPredicates(t *testing.T) {
	if (Record{}).HasCountry() || (Record{}).HasCity() {
		t.Error("zero record should answer nothing")
	}
	c := rec("US", "", ResolutionCountry)
	if !c.HasCountry() || c.HasCity() {
		t.Error("country record misclassified")
	}
	city := rec("US", "Dallas", ResolutionCity)
	if !city.HasCountry() || !city.HasCity() {
		t.Error("city record misclassified")
	}
	// City resolution without coordinates does not count as a city answer.
	noCoord := Record{Country: "US", City: "Dallas", Resolution: ResolutionCity}
	if noCoord.HasCity() {
		t.Error("city record without coordinates should not answer city")
	}
	if !(Record{BlockBits: 24}).BlockLevel() || (Record{BlockBits: 32}).BlockLevel() {
		t.Error("BlockLevel misclassified")
	}
}

func TestBuilderSingleLayer(t *testing.T) {
	b := NewBuilder("test")
	b.AddPrefix(0, ipx.MustParsePrefix("10.0.0.0/8"), rec("US", "", ResolutionCountry))
	b.AddPrefix(0, ipx.MustParsePrefix("11.0.0.0/8"), rec("DE", "", ResolutionCountry))
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if db.Name() != "test" {
		t.Errorf("Name = %q", db.Name())
	}
	got, ok := db.Lookup(ipx.MustParseAddr("10.1.2.3"))
	if !ok || got.Country != "US" {
		t.Errorf("Lookup = %+v, %v", got, ok)
	}
	if _, ok := db.Lookup(ipx.MustParseAddr("12.0.0.1")); ok {
		t.Error("lookup outside records should miss")
	}
}

func TestBuilderLayering(t *testing.T) {
	// Base /16 country record, /24 correction, /32 hint — the NetAcuity
	// stack. Queries must resolve to the finest covering layer.
	b := NewBuilder("layered")
	b.AddPrefix(0, ipx.MustParsePrefix("10.0.0.0/16"), rec("US", "Washington", ResolutionCity))
	b.AddPrefix(1, ipx.MustParsePrefix("10.0.5.0/24"), rec("DE", "Frankfurt", ResolutionCity))
	hint := rec("FR", "Paris", ResolutionCity)
	hint.BlockBits = 32
	b.Add(2, ipx.Range{Lo: ipx.MustParseAddr("10.0.5.7"), Hi: ipx.MustParseAddr("10.0.5.7")}, hint)
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	tests := []struct {
		ip   string
		city string
		bits uint8
	}{
		{"10.0.0.1", "Washington", 16},
		{"10.0.4.255", "Washington", 16},
		{"10.0.5.1", "Frankfurt", 24},
		{"10.0.5.7", "Paris", 32},
		{"10.0.5.8", "Frankfurt", 24},
		{"10.0.6.0", "Washington", 16},
		{"10.0.255.255", "Washington", 16},
	}
	for _, tt := range tests {
		got, ok := db.Lookup(ipx.MustParseAddr(tt.ip))
		if !ok || got.City != tt.city || got.BlockBits != tt.bits {
			t.Errorf("Lookup(%s) = %+v, %v; want city %s bits %d", tt.ip, got, ok, tt.city, tt.bits)
		}
	}
}

func TestBuilderRejectsIntraLayerOverlap(t *testing.T) {
	b := NewBuilder("bad")
	b.AddPrefix(0, ipx.MustParsePrefix("10.0.0.0/8"), rec("US", "", ResolutionCountry))
	b.AddPrefix(0, ipx.MustParsePrefix("10.5.0.0/16"), rec("DE", "", ResolutionCountry))
	if _, err := b.Build(); err == nil {
		t.Error("intra-layer overlap must be rejected")
	}
}

func TestBuilderOverrideAtEdges(t *testing.T) {
	// Overrides touching the base range's first and last addresses must
	// not produce inverted or overlapping fragments.
	b := NewBuilder("edges")
	b.AddPrefix(0, ipx.MustParsePrefix("10.0.0.0/24"), rec("US", "", ResolutionCountry))
	b.Add(1, ipx.Range{Lo: ipx.MustParseAddr("10.0.0.0"), Hi: ipx.MustParseAddr("10.0.0.0")}, rec("AA", "", ResolutionCountry))
	b.Add(1, ipx.Range{Lo: ipx.MustParseAddr("10.0.0.255"), Hi: ipx.MustParseAddr("10.0.0.255")}, rec("ZZ", "", ResolutionCountry))
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for ip, want := range map[string]string{
		"10.0.0.0": "AA", "10.0.0.1": "US", "10.0.0.254": "US", "10.0.0.255": "ZZ",
	} {
		got, ok := db.Lookup(ipx.MustParseAddr(ip))
		if !ok || got.Country != want {
			t.Errorf("Lookup(%s) = %+v, want %s", ip, got, want)
		}
	}
}

func TestBuilderFullOverride(t *testing.T) {
	// An override covering the whole base leaves no base fragments.
	b := NewBuilder("full")
	b.AddPrefix(0, ipx.MustParsePrefix("10.0.0.0/24"), rec("US", "", ResolutionCountry))
	b.AddPrefix(1, ipx.MustParsePrefix("10.0.0.0/24"), rec("DE", "", ResolutionCountry))
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 1 {
		t.Errorf("Len = %d, want 1", db.Len())
	}
	got, _ := db.Lookup(ipx.MustParseAddr("10.0.0.128"))
	if got.Country != "DE" {
		t.Errorf("full override failed: %+v", got)
	}
}

func TestLayeringRandomizedProperty(t *testing.T) {
	// Random layered construction vs a brute-force per-address oracle.
	rng := rand.New(rand.NewSource(3))
	b := NewBuilder("prop")
	type ent struct {
		layer int
		r     ipx.Range
		cc    string
	}
	var ents []ent
	for layer := 0; layer < 3; layer++ {
		var placed []ipx.Range
	draw:
		for i := 0; i < 40; i++ {
			lo := ipx.Addr(rng.Intn(5000))
			hi := lo + ipx.Addr(rng.Intn(200))
			for _, p := range placed {
				if lo <= p.Hi && p.Lo <= hi {
					continue draw // would overlap within the layer; skip
				}
			}
			placed = append(placed, ipx.Range{Lo: lo, Hi: hi})
			cc := string([]byte{byte('A' + layer), byte('A' + i%26)})
			b.Add(layer, ipx.Range{Lo: lo, Hi: hi}, rec(cc, "", ResolutionCountry))
			ents = append(ents, ent{layer: layer, r: ipx.Range{Lo: lo, Hi: hi}, cc: cc})
		}
	}
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	oracle := func(a ipx.Addr) (string, bool) {
		best, bestLayer := "", -1
		for _, e := range ents {
			if e.r.Contains(a) && e.layer > bestLayer {
				best, bestLayer = e.cc, e.layer
			}
		}
		return best, bestLayer >= 0
	}
	for a := ipx.Addr(0); a < 5300; a++ {
		want, wantOK := oracle(a)
		got, ok := db.Lookup(a)
		if ok != wantOK || (ok && got.Country != want) {
			t.Fatalf("Lookup(%d) = %q,%v; oracle %q,%v", a, got.Country, ok, want, wantOK)
		}
	}
}
