package vendors

import (
	"bytes"
	"math/rand"
	"testing"

	"routergeo/internal/geo"
	"routergeo/internal/geodb"
	"routergeo/internal/geodb/snapshot"
	"routergeo/internal/hints"
	"routergeo/internal/ipx"
	"routergeo/internal/netsim"
	"routergeo/internal/rdns"
)

var (
	cachedWorld *netsim.World
	cachedDBs   map[string]*geodb.DB
)

func setup(t *testing.T) (*netsim.World, map[string]*geodb.DB) {
	t.Helper()
	if cachedWorld == nil {
		cfg := netsim.DefaultConfig()
		cfg.Seed = 21
		cfg.ASes = 250
		w, err := netsim.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dict := hints.NewDictionary(w.Gaz)
		in := Inputs{
			World:   w,
			Feed:    BuildFeed(w, DefaultFeedConfig()),
			Zone:    rdns.Synthesize(w, dict, rdns.DefaultConfig()),
			Decoder: hints.NewDecoder(dict),
		}
		cachedDBs = map[string]*geodb.DB{}
		for _, p := range AllParams() {
			db, err := Build(in, p)
			if err != nil {
				t.Fatal(err)
			}
			cachedDBs[db.Name()] = db
		}
		cachedWorld = w
	}
	return cachedWorld, cachedDBs
}

// measure returns country coverage, city coverage, country accuracy and
// city accuracy (within 40 km) of a database over every world interface.
func measure(w *netsim.World, db *geodb.DB) (covCountry, covCity, accCountry, accCity float64) {
	var n, hasCountry, hasCity, okCountry, okCity int
	for i := range w.Interfaces {
		id := netsim.IfaceID(i)
		n++
		rec, ok := db.Lookup(w.Interfaces[i].Addr)
		if !ok {
			continue
		}
		if rec.HasCountry() {
			hasCountry++
			if rec.Country == w.CityOf(id).Country {
				okCountry++
			}
		}
		if rec.HasCity() {
			hasCity++
			if rec.Coord.WithinKm(w.CoordOf(id), 40) {
				okCity++
			}
		}
	}
	return float64(hasCountry) / float64(n), float64(hasCity) / float64(n),
		float64(okCountry) / float64(hasCountry), float64(okCity) / float64(hasCity)
}

func TestCoverageShapes(t *testing.T) {
	w, dbs := setup(t)
	type shape struct{ covCountry, covCity float64 }
	got := map[string]shape{}
	for name, db := range dbs {
		cc, ci, _, _ := measure(w, db)
		got[name] = shape{cc, ci}
		t.Logf("%s: country coverage %.3f, city coverage %.3f", name, cc, ci)
	}
	// IP2Location and NetAcuity: near-perfect coverage at both levels.
	for _, name := range []string{"IP2Location-Lite", "NetAcuity"} {
		if got[name].covCountry < 0.99 || got[name].covCity < 0.95 {
			t.Errorf("%s coverage too low: %+v", name, got[name])
		}
	}
	// MaxMind: high country coverage but visibly partial city coverage,
	// GeoLite below Paid (paper: 43%% vs 61.6%% on the Ark set).
	for _, name := range []string{"MaxMind-Paid", "MaxMind-GeoLite"} {
		if got[name].covCountry < 0.90 {
			t.Errorf("%s country coverage too low: %+v", name, got[name])
		}
		if got[name].covCity > 0.85 {
			t.Errorf("%s city coverage suspiciously high: %+v", name, got[name])
		}
	}
	if got["MaxMind-GeoLite"].covCity >= got["MaxMind-Paid"].covCity {
		t.Errorf("GeoLite city coverage (%.3f) should trail Paid (%.3f)",
			got["MaxMind-GeoLite"].covCity, got["MaxMind-Paid"].covCity)
	}
}

func TestAccuracyOrdering(t *testing.T) {
	w, dbs := setup(t)
	acc := map[string]struct{ country, city float64 }{}
	for name, db := range dbs {
		_, _, ac, ai := measure(w, db)
		acc[name] = struct{ country, city float64 }{ac, ai}
		t.Logf("%s: country accuracy %.3f, city accuracy %.3f", name, ac, ai)
	}
	// NetAcuity must lead everyone at country level (paper: 89.4%% vs
	// ~78%%) and beat IP2Location at city level.
	for _, other := range []string{"IP2Location-Lite", "MaxMind-GeoLite", "MaxMind-Paid"} {
		if acc["NetAcuity"].country <= acc[other].country {
			t.Errorf("NetAcuity country accuracy (%.3f) should beat %s (%.3f)",
				acc["NetAcuity"].country, other, acc[other].country)
		}
	}
	if acc["NetAcuity"].city <= acc["IP2Location-Lite"].city {
		t.Errorf("NetAcuity city accuracy (%.3f) should beat IP2Location (%.3f)",
			acc["NetAcuity"].city, acc["IP2Location-Lite"].city)
	}
	// IP2Location is the least city-accurate of all (paper Fig. 2).
	for _, other := range []string{"MaxMind-GeoLite", "MaxMind-Paid", "NetAcuity"} {
		if acc["IP2Location-Lite"].city >= acc[other].city {
			t.Errorf("IP2Location city accuracy (%.3f) should trail %s (%.3f)",
				acc["IP2Location-Lite"].city, other, acc[other].city)
		}
	}
}

func TestMaxMindFamilyCoordinatesIdentical(t *testing.T) {
	// When both MaxMind products answer the same city, the coordinates are
	// usually bit-identical — the signature of one family sharing its city
	// table (Figure 1: 68% identical). The free product's stale snapshot
	// (CoordStaleProb) breaks identity for a bounded share of cities, and
	// the drift stays small (the paper's MaxMind pair disagrees by >40 km
	// for only 11.4% of addresses).
	w, dbs := setup(t)
	paid, lite := dbs["MaxMind-Paid"], dbs["MaxMind-GeoLite"]
	var same, sameCity, far int
	for i := range w.Interfaces {
		a := w.Interfaces[i].Addr
		rp, ok1 := paid.Lookup(a)
		rl, ok2 := lite.Lookup(a)
		if !ok1 || !ok2 || !rp.HasCity() || !rl.HasCity() {
			continue
		}
		if rp.Country == rl.Country && rp.City == rl.City {
			sameCity++
			if rp.Coord == rl.Coord {
				same++
			} else if !rp.Coord.WithinKm(rl.Coord, 70) {
				far++
			}
		}
	}
	if sameCity == 0 {
		t.Fatal("no overlapping city answers between the MaxMind products")
	}
	identicalFrac := float64(same) / float64(sameCity)
	if identicalFrac < 0.55 || identicalFrac > 0.95 {
		t.Errorf("identical-coordinate share = %.2f, want 0.55-0.95 (paper: ~0.68 of pairs)", identicalFrac)
	}
	if far > 0 {
		t.Errorf("%d same-city answers differ by more than the staleness bound", far)
	}
}

func TestDifferentFamiliesDifferentCoords(t *testing.T) {
	w, dbs := setup(t)
	ip2, neta := dbs["IP2Location-Lite"], dbs["NetAcuity"]
	var sameCity, identical int
	for i := range w.Interfaces {
		a := w.Interfaces[i].Addr
		r1, ok1 := ip2.Lookup(a)
		r2, ok2 := neta.Lookup(a)
		if !ok1 || !ok2 || !r1.HasCity() || !r2.HasCity() {
			continue
		}
		if r1.Country == r2.Country && r1.City == r2.City {
			sameCity++
			if r1.Coord == r2.Coord {
				identical++
			}
		}
	}
	if sameCity > 0 && identical == sameCity {
		t.Error("independent vendors produced identical coordinates everywhere; families are not separated")
	}
}

func TestRegistryBiasPlanted(t *testing.T) {
	// Interfaces of multinational ARIN orgs located outside the US must
	// frequently be geolocated to the US by the registry-fed vendors —
	// the §5.2.3 mechanism.
	w, dbs := setup(t)
	ip2 := dbs["IP2Location-Lite"]
	var abroad, toUS int
	for i := range w.Interfaces {
		id := netsim.IfaceID(i)
		as := w.ASOfIface(id)
		if as.RIR != geo.ARIN || as.HomeCountry != "US" || !as.Multinational {
			continue
		}
		if w.CityOf(id).Country == "US" {
			continue
		}
		abroad++
		if rec, ok := ip2.Lookup(w.Interfaces[i].Addr); ok && rec.Country == "US" {
			toUS++
		}
	}
	if abroad == 0 {
		t.Fatal("no foreign interfaces of US multinationals in the world")
	}
	if frac := float64(toUS) / float64(abroad); frac < 0.4 {
		t.Errorf("only %.2f of foreign US-org interfaces geolocated to the US; paper saw ~0.70", frac)
	}
}

func TestHintPipelineOnlyNetAcuity(t *testing.T) {
	// Per-address (/32) records exist only in NetAcuity's database.
	_, dbs := setup(t)
	for name, db := range dbs {
		has32 := false
		db.Walk(func(_ ipx.Range, rec geodb.Record) bool {
			if rec.BlockBits == 32 {
				has32 = true
				return false
			}
			return true
		})
		if name == "NetAcuity" && !has32 {
			t.Error("NetAcuity has no per-address hint records")
		}
		if name != "NetAcuity" && has32 {
			t.Errorf("%s has per-address records; only NetAcuity runs the hint pipeline", name)
		}
	}
}

func TestBuildRequiresInputs(t *testing.T) {
	if _, err := Build(Inputs{}, IP2LocationLite()); err == nil {
		t.Error("Build without inputs must fail")
	}
	w, _ := setup(t)
	in := Inputs{World: w, Feed: BuildFeed(w, DefaultFeedConfig())}
	if _, err := Build(in, NetAcuity()); err == nil {
		t.Error("NetAcuity without a zone/decoder must fail")
	}
}

func TestVendorDBRoundTripsThroughSnapshot(t *testing.T) {
	w, dbs := setup(t)
	db := dbs["NetAcuity"]
	var buf bytes.Buffer
	if err := snapshot.Write(&buf, db, snapshot.Meta{}); err != nil {
		t.Fatal(err)
	}
	back, _, err := snapshot.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != db.Len() {
		t.Fatalf("round trip changed entry count: %d vs %d", back.Len(), db.Len())
	}
	for i := 0; i < w.NumInterfaces(); i += 71 {
		a := w.Interfaces[i].Addr
		r1, ok1 := db.Lookup(a)
		r2, ok2 := back.Lookup(a)
		if ok1 != ok2 || r1 != r2 {
			t.Fatalf("lookup diverged after round trip at %v", a)
		}
	}
}

func TestFeedSWIPSkewsTowardARINAndHQ(t *testing.T) {
	w, _ := setup(t)
	feed := BuildFeed(w, DefaultFeedConfig())
	counts := map[geo.RIR]struct{ blocks, swip, atHQ int }{}
	for ai, blocks := range feed.BlocksOf {
		info := feed.Allocations[ai]
		c := counts[info.Alloc.RIR]
		for _, b := range blocks {
			c.blocks++
			if rec, ok := feed.SWIP[b]; ok {
				c.swip++
				if rec.City == info.Org.HQCity && rec.Country == info.Org.HQCountry {
					c.atHQ++
				}
			}
		}
		counts[info.Alloc.RIR] = c
	}
	arin, ripe := counts[geo.ARIN], counts[geo.RIPENCC]
	if arin.blocks == 0 || ripe.blocks == 0 {
		t.Fatal("feed missing blocks in ARIN or RIPE")
	}
	arinFrac := float64(arin.swip) / float64(arin.blocks)
	ripeFrac := float64(ripe.swip) / float64(ripe.blocks)
	if arinFrac <= ripeFrac {
		t.Errorf("SWIP presence ARIN %.2f should exceed RIPE %.2f", arinFrac, ripeFrac)
	}
	if arin.swip > 0 && float64(arin.atHQ)/float64(arin.swip) < 0.5 {
		t.Errorf("ARIN SWIP at-HQ fraction %.2f too low; need HQ bias", float64(arin.atHQ)/float64(arin.swip))
	}
}

func TestBuildDeterministic(t *testing.T) {
	w, dbs := setup(t)
	dict := hints.NewDictionary(w.Gaz)
	in := Inputs{
		World:   w,
		Feed:    BuildFeed(w, DefaultFeedConfig()),
		Zone:    rdns.Synthesize(w, dict, rdns.DefaultConfig()),
		Decoder: hints.NewDecoder(dict),
	}
	again, err := Build(in, NetAcuity())
	if err != nil {
		t.Fatal(err)
	}
	orig := dbs["NetAcuity"]
	if again.Len() != orig.Len() {
		t.Fatalf("non-deterministic build: %d vs %d entries", again.Len(), orig.Len())
	}
}

func TestEvolvedBuildAtZeroIsIdentity(t *testing.T) {
	// A horizon-zero evolved build must be byte-identical to the base
	// build: LookupAt(·, evo, 0) ≡ Lookup and BlockMajorityCityAt(·, 0)
	// ≡ BlockMajorityCity, so even the hint pipeline's sequential rng
	// consumption is unchanged. The longitudinal series leans on this to
	// share epoch 0 with the point-in-time experiments.
	w, _ := setup(t)
	dict := hints.NewDictionary(w.Gaz)
	in := Inputs{
		World:   w,
		Feed:    BuildFeed(w, DefaultFeedConfig()),
		Zone:    rdns.Synthesize(w, dict, rdns.DefaultConfig()),
		Decoder: hints.NewDecoder(dict),
	}
	evo := w.Evolve(rand.New(rand.NewSource(42)), netsim.DefaultEvolutionParams())
	for _, p := range []Params{IP2LocationLite(), NetAcuity()} {
		base, err := Build(in, p)
		if err != nil {
			t.Fatal(err)
		}
		inEvo := in
		inEvo.Evo = evo
		evolved, err := Build(inEvo, p)
		if err != nil {
			t.Fatal(err)
		}
		var b1, b2 bytes.Buffer
		if err := snapshot.Write(&b1, base, snapshot.Meta{}); err != nil {
			t.Fatal(err)
		}
		if err := snapshot.Write(&b2, evolved, snapshot.Meta{}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Errorf("%s: evolved build at month 0 differs from the base build", p.Name)
		}
	}
}

func TestEvolvedBuildAtHorizonDiffers(t *testing.T) {
	w, _ := setup(t)
	dict := hints.NewDictionary(w.Gaz)
	in := Inputs{
		World:   w,
		Feed:    BuildFeed(w, DefaultFeedConfig()),
		Zone:    rdns.Synthesize(w, dict, rdns.DefaultConfig()),
		Decoder: hints.NewDecoder(dict),
		Evo:     w.Evolve(rand.New(rand.NewSource(42)), netsim.DefaultEvolutionParams()),
	}
	base, err := Build(in, NetAcuity())
	if err != nil {
		t.Fatal(err)
	}
	in.AsOfMonths = 16
	later, err := Build(in, NetAcuity())
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	if err := snapshot.Write(&b1, base, snapshot.Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := snapshot.Write(&b2, later, snapshot.Meta{}); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("16 months of churn left the NetAcuity build untouched")
	}
}

func TestEvolvedBuildRequiresTimeline(t *testing.T) {
	w, _ := setup(t)
	in := Inputs{World: w, Feed: BuildFeed(w, DefaultFeedConfig()), AsOfMonths: 10}
	if _, err := Build(in, IP2LocationLite()); err == nil {
		t.Error("AsOfMonths without Evo must fail")
	}
}
