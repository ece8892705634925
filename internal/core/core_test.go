package core

import (
	"context"
	"strings"
	"testing"

	"routergeo/internal/gazetteer"
	"routergeo/internal/geo"
	"routergeo/internal/geodb"
	"routergeo/internal/groundtruth"
	"routergeo/internal/ipx"
)

// fakeDB builds a small database from (prefix, record) pairs.
func fakeDB(t *testing.T, name string, add func(b *geodb.Builder)) *geodb.DB {
	t.Helper()
	b := geodb.NewBuilder(name)
	add(b)
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func cityRec(cc, city string, coord geo.Coordinate) geodb.Record {
	return geodb.Record{Country: cc, City: city, Coord: coord, Resolution: geodb.ResolutionCity}
}

func countryRec(cc string) geodb.Record {
	return geodb.Record{Country: cc, Resolution: geodb.ResolutionCountry}
}

var (
	dallas = geo.Coordinate{Lat: 32.7767, Lon: -96.797}
	miami  = geo.Coordinate{Lat: 25.7617, Lon: -80.1918}
	paris  = geo.Coordinate{Lat: 48.8566, Lon: 2.3522}
)

func addrsRange(base string, n int) []ipx.Addr {
	start := ipx.MustParseAddr(base)
	out := make([]ipx.Addr, n)
	for i := range out {
		out[i] = start + ipx.Addr(i)
	}
	return out
}

func TestMeasureCoverage(t *testing.T) {
	db := fakeDB(t, "d", func(b *geodb.Builder) {
		b.AddPrefix(0, ipx.MustParsePrefix("10.0.0.0/24"), cityRec("US", "Dallas", dallas))
		b.AddPrefix(0, ipx.MustParsePrefix("10.0.1.0/24"), countryRec("US"))
	})
	addrs := []ipx.Addr{
		ipx.MustParseAddr("10.0.0.5"), // city
		ipx.MustParseAddr("10.0.1.5"), // country only
		ipx.MustParseAddr("10.0.2.5"), // miss
	}
	c := MeasureCoverage(context.Background(), db, addrs)
	if c.Total != 3 || c.Country != 2 || c.City != 1 {
		t.Errorf("coverage = %+v", c)
	}
	if c.CountryPct() != 2.0/3 || c.CityPct() != 1.0/3 {
		t.Errorf("pcts = %v, %v", c.CountryPct(), c.CityPct())
	}
}

func TestMeasureAccuracy(t *testing.T) {
	db := fakeDB(t, "d", func(b *geodb.Builder) {
		b.AddPrefix(0, ipx.MustParsePrefix("10.0.0.0/24"), cityRec("US", "Dallas", dallas))
		b.AddPrefix(0, ipx.MustParsePrefix("10.0.1.0/24"), countryRec("FR"))
	})
	targets := []Target{
		{Addr: ipx.MustParseAddr("10.0.0.1"), Truth: dallas, Country: "US"}, // right city
		{Addr: ipx.MustParseAddr("10.0.0.2"), Truth: miami, Country: "US"},  // right country, wrong city
		{Addr: ipx.MustParseAddr("10.0.1.1"), Truth: paris, Country: "FR"},  // country-only, right
		{Addr: ipx.MustParseAddr("10.0.9.1"), Truth: paris, Country: "FR"},  // miss
	}
	a := MeasureAccuracy(context.Background(), db, targets)
	if a.Total != 4 || a.CountryAnswered != 3 || a.CountryCorrect != 3 {
		t.Errorf("country stats = %+v", a)
	}
	if a.CityAnswered != 2 || a.Within40Km != 1 {
		t.Errorf("city stats = %+v", a)
	}
	if a.CityAccuracy() != 0.5 {
		t.Errorf("CityAccuracy = %v", a.CityAccuracy())
	}
	if a.ErrorCDF.N() != 2 {
		t.Errorf("CDF samples = %d", a.ErrorCDF.N())
	}
	// Callers query the CDF without a nil check, even over no targets.
	if e := MeasureAccuracy(context.Background(), db, nil); e.Total != 0 || e.ErrorCDF == nil || e.ErrorCDF.N() != 0 {
		t.Errorf("empty input = %+v", e)
	}
}

func TestAccuracyBreakdowns(t *testing.T) {
	db := fakeDB(t, "d", func(b *geodb.Builder) {
		b.AddPrefix(0, ipx.MustParsePrefix("10.0.0.0/16"), countryRec("US"))
	})
	targets := []Target{
		{Addr: ipx.MustParseAddr("10.0.0.1"), Truth: dallas, Country: "US", RIR: geo.ARIN, Method: groundtruth.DNS},
		{Addr: ipx.MustParseAddr("10.0.0.2"), Truth: paris, Country: "FR", RIR: geo.RIPENCC, Method: groundtruth.RTT},
		{Addr: ipx.MustParseAddr("10.0.0.3"), Truth: miami, Country: "US", RIR: geo.ARIN, Method: groundtruth.RTT},
	}
	byRIR := AccuracyByRIR(context.Background(), db, targets)
	if byRIR[geo.ARIN].Total != 2 || byRIR[geo.RIPENCC].Total != 1 {
		t.Errorf("byRIR = %+v", byRIR)
	}
	if byRIR[geo.RIPENCC].CountryCorrect != 0 {
		t.Error("FR target should be wrong in a US-only database")
	}
	byCC := AccuracyByCountry(context.Background(), db, targets)
	if byCC["US"].Total != 2 || byCC["FR"].Total != 1 {
		t.Errorf("byCountry = %+v", byCC)
	}
	byM := AccuracyByMethod(context.Background(), db, targets)
	if byM[groundtruth.DNS].Total != 1 || byM[groundtruth.RTT].Total != 2 {
		t.Errorf("byMethod = %+v", byM)
	}
}

func TestTopCountries(t *testing.T) {
	targets := []Target{
		{Country: "US"}, {Country: "US"}, {Country: "US"},
		{Country: "DE"}, {Country: "DE"},
		{Country: "FR"},
	}
	got := TopCountries(targets, 2)
	if len(got) != 2 || got[0] != "US" || got[1] != "DE" {
		t.Errorf("TopCountries = %v", got)
	}
	all := TopCountries(targets, 10)
	if len(all) != 3 || all[2] != "FR" {
		t.Errorf("TopCountries(10) = %v", all)
	}
}

func TestCountryAgreement(t *testing.T) {
	a := fakeDB(t, "a", func(b *geodb.Builder) {
		b.AddPrefix(0, ipx.MustParsePrefix("10.0.0.0/24"), countryRec("US"))
		b.AddPrefix(0, ipx.MustParsePrefix("10.0.1.0/24"), countryRec("DE"))
	})
	bdb := fakeDB(t, "b", func(b *geodb.Builder) {
		b.AddPrefix(0, ipx.MustParsePrefix("10.0.0.0/24"), countryRec("US"))
		b.AddPrefix(0, ipx.MustParsePrefix("10.0.1.0/24"), countryRec("FR"))
	})
	addrs := []ipx.Addr{
		ipx.MustParseAddr("10.0.0.1"),
		ipx.MustParseAddr("10.0.1.1"),
		ipx.MustParseAddr("10.0.2.1"), // miss in both
	}
	agree, both := CountryAgreement(context.Background(), a, bdb, addrs)
	if agree != 1 || both != 2 {
		t.Errorf("agreement = %d/%d", agree, both)
	}
	all, total := CountryAgreementAll(context.Background(), []geodb.Provider{a, bdb}, addrs)
	if all != 1 || total != 3 {
		t.Errorf("all-agreement = %d/%d", all, total)
	}
}

func TestMeasurePairwiseCity(t *testing.T) {
	a := fakeDB(t, "a", func(b *geodb.Builder) {
		b.AddPrefix(0, ipx.MustParsePrefix("10.0.0.0/24"), cityRec("US", "Dallas", dallas))
		b.AddPrefix(0, ipx.MustParsePrefix("10.0.1.0/24"), cityRec("US", "Miami", miami))
	})
	bdb := fakeDB(t, "b", func(b *geodb.Builder) {
		b.AddPrefix(0, ipx.MustParsePrefix("10.0.0.0/24"), cityRec("US", "Dallas", dallas)) // identical
		b.AddPrefix(0, ipx.MustParsePrefix("10.0.1.0/24"), cityRec("FR", "Paris", paris))   // far
	})
	addrs := []ipx.Addr{ipx.MustParseAddr("10.0.0.1"), ipx.MustParseAddr("10.0.1.1")}
	p := MeasurePairwiseCity(context.Background(), a, bdb, addrs)
	if p.Both != 2 || p.Identical != 1 || p.Over40Km != 1 {
		t.Errorf("pairwise = %+v", p)
	}
	if p.DisagreeOver40Pct() != 0.5 {
		t.Errorf("DisagreeOver40Pct = %v", p.DisagreeOver40Pct())
	}
	if p.CDF.N() != 1 {
		t.Errorf("CDF holds %d samples; identical pairs must be excluded", p.CDF.N())
	}

	filtered := CityAnsweredInAll(context.Background(), []geodb.Provider{a, bdb}, append(addrs, ipx.MustParseAddr("10.0.2.1")))
	if len(filtered) != 2 {
		t.Errorf("CityAnsweredInAll = %v", filtered)
	}
}

func TestValidateCityCoords(t *testing.T) {
	gaz := gazetteer.New()
	dal, _ := gaz.City("US", "Dallas")
	good := dal.Coord.Offset(5, 90)
	bad := dal.Coord.Offset(500, 90)
	db := fakeDB(t, "d", func(b *geodb.Builder) {
		b.AddPrefix(0, ipx.MustParsePrefix("10.0.0.0/24"), cityRec("US", "Dallas", good))
		b.AddPrefix(0, ipx.MustParsePrefix("10.0.1.0/24"), cityRec("US", "Springfield", bad)) // not in gazetteer
		b.AddPrefix(0, ipx.MustParsePrefix("10.0.2.0/24"), cityRec("US", "Miami", bad))       // way off
	})
	chk := ValidateCityCoords(db, gaz)
	if chk.Cities != 3 || chk.Within40Km != 1 || chk.Unmatched != 1 {
		t.Errorf("check = %+v", chk)
	}
}

func TestCrossDBCityCoords(t *testing.T) {
	gaz := gazetteer.New()
	dal, _ := gaz.City("US", "Dallas")
	a := fakeDB(t, "a", func(b *geodb.Builder) {
		b.AddPrefix(0, ipx.MustParsePrefix("10.0.0.0/24"), cityRec("US", "Dallas", dal.Coord.Offset(3, 0)))
		b.AddPrefix(0, ipx.MustParsePrefix("10.0.1.0/24"), cityRec("US", "Miami", miami))
	})
	bdb := fakeDB(t, "b", func(b *geodb.Builder) {
		b.AddPrefix(0, ipx.MustParsePrefix("20.0.0.0/24"), cityRec("US", "Dallas", dal.Coord.Offset(6, 180)))
		b.AddPrefix(0, ipx.MustParsePrefix("20.0.1.0/24"), cityRec("US", "Miami", miami.Offset(300, 90)))
	})
	within, common := CrossDBCityCoords(a, bdb)
	if common != 2 || within != 1 {
		t.Errorf("cross-db = %d/%d", within, common)
	}
}

func TestSharedIncorrect(t *testing.T) {
	mk := func(name, cc1 string) *geodb.DB {
		return fakeDB(t, name, func(b *geodb.Builder) {
			b.AddPrefix(0, ipx.MustParsePrefix("10.0.0.0/24"), countryRec(cc1))
		})
	}
	dbs := []geodb.Provider{mk("a", "US"), mk("b", "US"), mk("c", "US")}
	targets := []Target{
		{Addr: ipx.MustParseAddr("10.0.0.1"), Country: "FR"}, // all wrong, same answer
		{Addr: ipx.MustParseAddr("10.0.0.2"), Country: "US"}, // all right
	}
	shared, wrong := SharedIncorrect(context.Background(), dbs, targets)
	if shared != 1 {
		t.Errorf("shared = %d", shared)
	}
	for i, n := range wrong {
		if n != 1 {
			t.Errorf("wrong[%d] = %d", i, n)
		}
	}
}

func TestRunARINCaseStudy(t *testing.T) {
	// A database that sends one non-US ARIN target to the US with a city,
	// and answers two US targets (one wrong at block level).
	db := fakeDB(t, "d", func(b *geodb.Builder) {
		hq := cityRec("US", "Dallas", dallas)
		hq.BlockBits = 20
		b.AddPrefix(0, ipx.MustParsePrefix("10.0.0.0/20"), hq)
	})
	targets := []Target{
		{Addr: ipx.MustParseAddr("10.0.0.1"), Truth: paris, Country: "FR", RIR: geo.ARIN},  // non-US, placed in US
		{Addr: ipx.MustParseAddr("10.0.1.1"), Truth: dallas, Country: "US", RIR: geo.ARIN}, // right
		{Addr: ipx.MustParseAddr("10.0.2.1"), Truth: miami, Country: "US", RIR: geo.ARIN},  // wrong, block level
		{Addr: ipx.MustParseAddr("20.0.0.1"), Truth: paris, Country: "FR", RIR: geo.RIPENCC},
	}
	s := RunARINCaseStudy(db, targets)
	if s.ARINTargets != 3 || s.NonUS != 1 || s.NonUSPlacedInUS != 1 || s.NonUSPlacedInUSCity != 1 {
		t.Errorf("case study = %+v", s)
	}
	if s.NonUSCityOver1000Km != 1 {
		t.Errorf("expected the Paris target to be >1000 km off: %+v", s)
	}
	if s.USARINCityAnswered != 2 || s.USARINCityWrong != 1 || s.WrongBlockLevel != 1 {
		t.Errorf("US stats = %+v", s)
	}
	if s.WrongBlockShare() != 1 || s.CorrectBlockShare() != 1 {
		t.Errorf("block shares = %v, %v", s.WrongBlockShare(), s.CorrectBlockShare())
	}
	if s.ARINShare != 0.75 {
		t.Errorf("ARINShare = %v", s.ARINShare)
	}
}

func TestRecommendations(t *testing.T) {
	mkAcc := func(total, ctryAns, ctryOK, cityAns, within int) Accuracy {
		return Accuracy{Total: total, CountryAnswered: ctryAns, CountryCorrect: ctryOK,
			CityAnswered: cityAns, Within40Km: within}
	}
	results := map[string]Accuracy{
		"NetAcuity":        mkAcc(1000, 1000, 894, 996, 720),
		"MaxMind-Paid":     mkAcc(1000, 954, 750, 413, 270),
		"MaxMind-GeoLite":  mkAcc(1000, 954, 745, 304, 180),
		"IP2Location-Lite": mkAcc(1000, 1000, 775, 998, 310),
	}
	perRIR := map[string]map[geo.RIR]Accuracy{
		"NetAcuity":        {geo.ARIN: mkAcc(640, 640, 566, 636, 420)},
		"MaxMind-Paid":     {geo.ARIN: mkAcc(640, 610, 490, 260, 110)},
		"MaxMind-GeoLite":  {geo.ARIN: mkAcc(640, 610, 480, 200, 80)},
		"IP2Location-Lite": {geo.ARIN: mkAcc(640, 640, 492, 638, 180)},
	}
	recs := Recommend(results, perRIR)
	if len(recs) < 4 {
		t.Fatalf("only %d recommendations", len(recs))
	}
	joined := ""
	for _, r := range recs {
		if r.Rank == 0 || r.Text == "" {
			t.Errorf("malformed recommendation %+v", r)
		}
		joined += r.Subject + ": " + r.Text + "\n"
	}
	if !strings.Contains(joined, "NetAcuity") {
		t.Error("the best database (NetAcuity) should be recommended")
	}
	if !strings.Contains(joined, "IP2Location") {
		t.Error("the least accurate full-coverage database should be warned about")
	}
	if !strings.Contains(joined, "ARIN") {
		t.Error("ARIN city-level warning missing")
	}
	if !strings.Contains(joined, "commercial MaxMind") {
		t.Error("paid-over-free MaxMind recommendation missing")
	}
}

func TestRecommendationsEmptyInput(t *testing.T) {
	recs := Recommend(map[string]Accuracy{}, nil)
	// With nothing measured there is nothing to advise except possibly the
	// "best" of nothing; just make sure it does not panic and stays small.
	if len(recs) > 1 {
		t.Errorf("unexpected recommendations from empty input: %+v", recs)
	}
}
