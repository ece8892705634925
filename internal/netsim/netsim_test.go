package netsim

import (
	"math"
	"math/rand"
	"testing"

	"routergeo/internal/geo"
	"routergeo/internal/ipx"
)

// smallConfig builds quickly; used by most tests.
func smallConfig(seed int64) Config {
	c := DefaultConfig()
	c.Seed = seed
	c.ASes = 120
	return c
}

// buildSmall caches one small world per seed across tests in this package.
var worldCache = map[int64]*World{}

func buildSmall(t testing.TB, seed int64) *World {
	t.Helper()
	if w, ok := worldCache[seed]; ok {
		return w
	}
	w, err := Build(smallConfig(seed))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	worldCache[seed] = w
	return w
}

func TestBuildValidates(t *testing.T) {
	w := buildSmall(t, 1)
	if err := validateWorld(w); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, err := Build(smallConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(smallConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumRouters() != b.NumRouters() || a.NumInterfaces() != b.NumInterfaces() || a.NumLinks() != b.NumLinks() {
		t.Fatalf("same seed, different worlds: %d/%d/%d vs %d/%d/%d",
			a.NumRouters(), a.NumInterfaces(), a.NumLinks(),
			b.NumRouters(), b.NumInterfaces(), b.NumLinks())
	}
	for i := range a.Interfaces {
		if a.Interfaces[i].Addr != b.Interfaces[i].Addr {
			t.Fatalf("interface %d address differs", i)
		}
	}
}

func TestSeedASesPresent(t *testing.T) {
	w := buildSmall(t, 1)
	want := map[string]bool{
		"cogentco.com": false, "ntt.net": false, "seabone.net": false,
		"pnap.net": false, "peak10.net": false, "digitalwest.net": false,
		"belwue.de": false,
	}
	for i := range w.ASes {
		if _, ok := want[w.ASes[i].Domain]; ok {
			want[w.ASes[i].Domain] = true
		}
	}
	for d, found := range want {
		if !found {
			t.Errorf("seed domain %s missing from world", d)
		}
	}
}

func TestSeedASFootprints(t *testing.T) {
	w := buildSmall(t, 1)
	for i := range w.ASes {
		as := &w.ASes[i]
		switch as.Domain {
		case "cogentco.com":
			if !as.Transit || !as.Multinational {
				t.Error("cogent must be multinational transit")
			}
			foreign := 0
			for _, p := range as.PoPs {
				if p.City.Country != "US" {
					foreign++
				}
			}
			if foreign == 0 {
				t.Error("cogent has no foreign PoPs; registry-bias experiments need them")
			}
			if as.RIR != geo.ARIN {
				t.Error("cogent must be ARIN-registered")
			}
		case "belwue.de":
			for _, p := range as.PoPs {
				if p.City.Country != "DE" {
					t.Errorf("belwue PoP outside Germany: %s/%s", p.City.Country, p.City.Name)
				}
			}
		}
	}
}

func TestInterfacesPerRouterRatio(t *testing.T) {
	// The paper's Ark/ITDK data implies ~3.4 interfaces per router; our
	// link-driven interface creation should land in the same regime.
	w := buildSmall(t, 1)
	ratio := float64(w.NumInterfaces()) / float64(w.NumRouters())
	if ratio < 1.5 || ratio > 6 {
		t.Errorf("interfaces per router = %.2f, want 1.5-6", ratio)
	}
}

func TestAddressesUniqueAndRegistered(t *testing.T) {
	w := buildSmall(t, 1)
	seen := map[ipx.Addr]bool{}
	for i := range w.Interfaces {
		a := w.Interfaces[i].Addr
		if seen[a] {
			t.Fatalf("duplicate address %v", a)
		}
		seen[a] = true
		if b := a & 0xff; b == 0 || b == 255 {
			t.Fatalf("network/broadcast address assigned: %v", a)
		}
		alloc, org, ok := w.Reg.Whois(a)
		if !ok {
			t.Fatalf("interface address %v not in whois", a)
		}
		as := w.ASOfIface(w.Interfaces[i].ID)
		if alloc.ASN != as.ASN {
			t.Fatalf("address %v registered to AS%d, interface belongs to AS%d", a, alloc.ASN, as.ASN)
		}
		if org.RIR != as.RIR {
			t.Fatalf("address %v org RIR %v != AS RIR %v", a, org.RIR, as.RIR)
		}
	}
}

func TestBlockCityTracking(t *testing.T) {
	w := buildSmall(t, 1)
	shared, single := 0, 0
	for _, p := range w.RoutedSlash24s() {
		switch n := w.BlockCityCount(p.Base); {
		case n > 1:
			shared++
		case n == 1:
			single++
		default:
			t.Fatalf("block %v has zero cities", p)
		}
	}
	if shared == 0 {
		t.Error("no cross-city /24 blocks; §5.2.3's block-level error source is missing")
	}
	if single == 0 {
		t.Error("no co-located /24 blocks at all")
	}
	if shared > single {
		t.Errorf("cross-city blocks (%d) outnumber co-located ones (%d); world is unrealistic", shared, single)
	}
}

func TestDestRouterFor(t *testing.T) {
	w := buildSmall(t, 1)
	// Exact interface address resolves to its own router.
	ifc := w.Interfaces[0]
	r, ok := w.DestRouterFor(ifc.Addr)
	if !ok || r != ifc.Router {
		t.Errorf("DestRouterFor(exact) = %v, %v", r, ok)
	}
	// A random address in the same /24 resolves to the block owner.
	other := ifc.Addr.Slash24().Base + 250
	if _, ok := w.DestRouterFor(other); !ok {
		t.Error("DestRouterFor should resolve any address in a routed /24")
	}
	// Unrouted space misses.
	if _, ok := w.DestRouterFor(ipx.MustParseAddr("203.0.113.1")); ok {
		t.Error("DestRouterFor should miss unrouted space")
	}
}

func TestNearestRouter(t *testing.T) {
	w := buildSmall(t, 1)
	// Nearest router to Frankfurt restricted to DE must be in Germany.
	fra, _ := w.Gaz.City("DE", "Frankfurt")
	r, ok := w.NearestRouter(fra.Coord, "DE")
	if !ok {
		t.Fatal("no router found")
	}
	if got := w.ASes[w.Routers[r].AS].PoPs[w.Routers[r].PoP].City.Country; got != "DE" {
		t.Errorf("country-restricted nearest router is in %s", got)
	}
	// Unrestricted search returns someone at least as close.
	rAny, _ := w.NearestRouter(fra.Coord, "")
	if w.Routers[rAny].Coord.DistanceKm(fra.Coord) > w.Routers[r].Coord.DistanceKm(fra.Coord)+1e-9 {
		t.Error("unrestricted nearest farther than restricted nearest")
	}
}

func TestRouterJitterBounded(t *testing.T) {
	w := buildSmall(t, 1)
	for i := range w.Routers {
		r := &w.Routers[i]
		city := w.ASes[r.AS].PoPs[r.PoP].City
		if d := r.Coord.DistanceKm(city.Coord); d > CityJitterKm+0.5 {
			t.Fatalf("router %d is %.1f km from its city centre (max %v)", i, d, CityJitterKm)
		}
	}
}

func TestLinkDelaysRespectGeography(t *testing.T) {
	w := buildSmall(t, 1)
	for i, l := range w.Links {
		d := w.Routers[l.A].Coord.DistanceKm(w.Routers[l.B].Coord)
		min := d / 200 // fibre floor, one-way
		if l.OneWayMs < min-1e-9 {
			t.Fatalf("link %d one-way %.3f ms beats light in fibre for %.1f km", i, l.OneWayMs, d)
		}
	}
}

func TestTransitSharePlausible(t *testing.T) {
	w := buildSmall(t, 1)
	transit := 0
	for i := range w.ASes {
		if w.ASes[i].Transit {
			transit++
		}
	}
	frac := float64(transit) / float64(len(w.ASes))
	if frac < 0.05 || frac > 0.4 {
		t.Errorf("transit AS fraction = %.2f, want 0.05-0.4", frac)
	}
	// Transit ASes must be flagged in the registry for the Table 1 analysis.
	for i := range w.ASes {
		if w.ASes[i].Transit != w.Reg.IsTransit(w.ASes[i].ASN) {
			t.Fatalf("AS%d transit flag mismatch with registry", w.ASes[i].ASN)
		}
	}
}

func TestMultinationalPlacement(t *testing.T) {
	w := buildSmall(t, 1)
	// Multinational ASes must actually have foreign PoPs, and LACNIC
	// synthetic orgs must not be multinational (Figure 3 shows 0% wrong
	// country there).
	for i := range w.ASes {
		as := &w.ASes[i]
		foreign := 0
		for _, p := range as.PoPs {
			if p.City.Country != as.HomeCountry {
				foreign++
			}
		}
		if as.Multinational && foreign == 0 {
			t.Errorf("AS%d flagged multinational but has no foreign PoPs", as.ASN)
		}
		if !as.Multinational && foreign > 0 {
			t.Errorf("AS%d not multinational but has %d foreign PoPs", as.ASN, foreign)
		}
		if as.RIR == geo.LACNIC && as.Domain != "seabone.net" && as.Multinational {
			t.Errorf("LACNIC AS%d is multinational; config says none should be", as.ASN)
		}
	}
}

func TestWorldScaleDefaults(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size world build")
	}
	w, err := Build(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := validateWorld(w); err != nil {
		t.Fatal(err)
	}
	if w.NumInterfaces() < 5000 {
		t.Errorf("default world has only %d interfaces; experiments need thousands", w.NumInterfaces())
	}
	if w.NumRouters() < 1500 {
		t.Errorf("default world has only %d routers", w.NumRouters())
	}
}

func TestEvolutionRatesMatchPaper(t *testing.T) {
	w := buildSmall(t, 1)
	e := w.Evolve(rand.New(rand.NewSource(2)), DefaultEvolutionParams())
	n := float64(w.NumInterfaces())
	var moved, renamed, lost int
	for i := range w.Interfaces {
		id := IfaceID(i)
		if e.Moved(id, 16) {
			moved++
		}
		if e.Renamed(id, 16) {
			renamed++
		}
		if e.RDNSLost(id, 16) {
			lost++
		}
	}
	// Paper (§3.1): 7.4% moved, 24% renamed, 6.9% lost over 16 months.
	if f := float64(moved) / n; f < 0.05 || f > 0.12 {
		t.Errorf("moved fraction at 16 months = %.3f, want ~0.074", f)
	}
	if f := float64(renamed) / n; f < 0.17 || f > 0.31 {
		t.Errorf("renamed fraction at 16 months = %.3f, want ~0.24", f)
	}
	if f := float64(lost) / n; f < 0.045 || f > 0.10 {
		t.Errorf("lost fraction at 16 months = %.3f, want ~0.069", f)
	}
}

func TestEvolutionMonotonicAndConsistent(t *testing.T) {
	w := buildSmall(t, 1)
	e := w.Evolve(rand.New(rand.NewSource(3)), DefaultEvolutionParams())
	for i := range w.Interfaces {
		id := IfaceID(i)
		if e.Moved(id, 10) && !e.Moved(id, 16) {
			t.Fatal("a move cannot un-happen")
		}
		if e.RDNSLost(id, 10) && !e.RDNSLost(id, 16) {
			t.Fatal("rDNS loss cannot un-happen")
		}
		if !e.Moved(id, 10) {
			if e.CityAt(id, 10) != w.CityOf(id) {
				t.Fatal("unmoved interface changed city")
			}
		} else if e.CityAt(id, 10) == w.CityOf(id) {
			t.Fatal("moved interface kept its city")
		}
		if e.HintStale(id, 16) && e.Renamed(id, 16) && e.renameAt[id] > 16 {
			t.Fatal("stale-hint move must not count as renamed")
		}
	}
}

func TestEvolutionAtZeroIsIdentity(t *testing.T) {
	w := buildSmall(t, 1)
	e := w.Evolve(rand.New(rand.NewSource(4)), DefaultEvolutionParams())
	for i := 0; i < w.NumInterfaces(); i += 97 {
		id := IfaceID(i)
		if e.Moved(id, 0) || e.Renamed(id, 0) || e.RDNSLost(id, 0) {
			t.Fatal("no churn may have happened at month 0")
		}
		if e.CityAt(id, 0) != w.CityOf(id) || e.CoordAt(id, 0) != w.CoordOf(id) {
			t.Fatal("view at month 0 must equal the original world")
		}
	}
}

func TestRoutedSlash24sCoverInterfaces(t *testing.T) {
	w := buildSmall(t, 1)
	blocks := map[ipx.Addr]bool{}
	for _, p := range w.RoutedSlash24s() {
		blocks[p.Base] = true
	}
	for i := range w.Interfaces {
		if !blocks[w.Interfaces[i].Addr.Slash24().Base] {
			t.Fatalf("interface %v's /24 missing from RoutedSlash24s", w.Interfaces[i].Addr)
		}
	}
}

func TestEvolutionZeroRatesNeverChurn(t *testing.T) {
	w := buildSmall(t, 1)
	e := w.Evolve(rand.New(rand.NewSource(6)), EvolutionParams{})
	for i := 0; i < w.NumInterfaces(); i += 31 {
		id := IfaceID(i)
		if e.Moved(id, 1e6) || e.Renamed(id, 1e6) || e.RDNSLost(id, 1e6) {
			t.Fatal("zero-rate evolution produced churn")
		}
	}
}

func TestBlockCitiesConsistent(t *testing.T) {
	w := buildSmall(t, 1)
	for _, p := range w.RoutedSlash24s()[:50] {
		cities := w.BlockCities(p.Base)
		if len(cities) != w.BlockCityCount(p.Base) {
			t.Fatalf("BlockCities (%d) disagrees with BlockCityCount (%d)",
				len(cities), w.BlockCityCount(p.Base))
		}
		maj, ok := w.BlockMajorityCity(p.Base)
		if !ok {
			t.Fatal("routed block has no majority city")
		}
		found := false
		for _, c := range cities {
			if c.Country == maj.Country && c.Name == maj.Name {
				found = true
			}
		}
		if !found {
			t.Fatal("majority city not among the block's cities")
		}
	}
	if cities := w.BlockCities(ipx.MustParseAddr("203.0.113.0")); len(cities) != 0 {
		t.Errorf("unrouted block has cities: %v", cities)
	}
}

func TestSeedPoPRouterOverride(t *testing.T) {
	// The seeded operators' RoutersPerPoPMax must actually take effect:
	// cogent PoPs should frequently exceed the synthetic transit cap.
	w := buildSmall(t, 1)
	cap := routersPerTransitPoPMax
	exceeded := false
	for i := range w.ASes {
		as := &w.ASes[i]
		if as.Domain != "cogentco.com" {
			continue
		}
		for _, p := range as.PoPs {
			if len(p.Routers) > cap {
				exceeded = true
			}
		}
	}
	if !exceeded {
		t.Errorf("no cogent PoP exceeds the synthetic cap %d; PoPRouters override inert", cap)
	}
}

// TestFillDefaultsPreservesExplicit checks that Build keeps an explicit
// AS count and builds DefaultConfig's for a zero one.
func TestFillDefaultsPreservesExplicit(t *testing.T) {
	for _, tc := range []struct{ ases, want int }{{42, 42}, {0, DefaultConfig().ASes}} {
		w, err := Build(Config{Seed: 5, ASes: tc.ases})
		if err != nil {
			t.Fatal(err)
		}
		if got := w.NumASes(); got != tc.want {
			t.Errorf("ASes %d: built %d ASes, want %d", tc.ases, got, tc.want)
		}
	}
}

func TestPeerIfaceInvolution(t *testing.T) {
	w := buildSmall(t, 1)
	for i := 0; i < w.NumInterfaces(); i += 17 {
		id := IfaceID(i)
		peer := w.PeerIface(id)
		if w.PeerIface(peer) != id {
			t.Fatalf("PeerIface not an involution at %d", id)
		}
		if w.Interfaces[peer].Router == w.Interfaces[id].Router {
			t.Fatalf("link %d connects a router to itself", w.Interfaces[id].Link)
		}
	}
}

func TestEvolutionPinnedMarginals(t *testing.T) {
	w, err := Build(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := w.Evolve(rand.New(rand.NewSource(11)), DefaultEvolutionParams())
	n := float64(w.NumInterfaces())
	var moved, renamed, lost int
	for i := range w.Interfaces {
		id := IfaceID(i)
		if e.Moved(id, 16) {
			moved++
		}
		if e.Renamed(id, 16) {
			renamed++
		}
		if e.RDNSLost(id, 16) {
			lost++
		}
	}
	// The defaults must reproduce the paper's 16-month marginals (§3.1)
	// as marginals, not as raw hazard inputs: Renamed is the union of
	// in-place renames and updated-hostname moves, so its calibration is
	// backed out of the 24% rather than fed in directly. Tolerances are
	// ~3σ for the default world's interface count.
	check := func(what string, got int, want, tol float64) {
		t.Helper()
		if f := float64(got) / n; math.Abs(f-want) > tol {
			t.Errorf("%s fraction at 16 months = %.4f, want %.3f ± %.3f", what, f, want, tol)
		}
	}
	check("moved", moved, 0.074, 0.015)
	check("renamed", renamed, 0.24, 0.025)
	check("lost", lost, 0.069, 0.015)
}

func TestEvolutionHorizonDeterminism(t *testing.T) {
	w := buildSmall(t, 1)
	e := w.Evolve(rand.New(rand.NewSource(7)), DefaultEvolutionParams())
	horizons := []float64{0, 10, 16}
	for i := range w.Interfaces {
		id := IfaceID(i)
		for k := 1; k < len(horizons); k++ {
			prev, cur := horizons[k-1], horizons[k]
			if e.RDNSLost(id, prev) && !e.RDNSLost(id, cur) {
				t.Fatalf("iface %d: lost at +%v but present at +%v", i, prev, cur)
			}
			if e.Moved(id, prev) {
				if e.CoordAt(id, prev) != e.CoordAt(id, cur) {
					t.Fatalf("iface %d: move destination drifted between +%v and +%v", i, prev, cur)
				}
				if e.CityAt(id, prev) != e.CityAt(id, cur) {
					t.Fatalf("iface %d: destination city drifted between +%v and +%v", i, prev, cur)
				}
			}
		}
		// Re-querying the same horizon is a pure read.
		if e.CoordAt(id, 10) != e.CoordAt(id, 10) || e.Renamed(id, 16) != e.Renamed(id, 16) {
			t.Fatalf("iface %d: repeated queries disagree", i)
		}
	}
}

func TestBlockMajorityCityAtZeroMatchesWorld(t *testing.T) {
	w := buildSmall(t, 1)
	e := w.Evolve(rand.New(rand.NewSource(8)), DefaultEvolutionParams())
	for _, p := range w.RoutedSlash24s() {
		want, wok := w.BlockMajorityCity(p.Base)
		got, gok := e.BlockMajorityCityAt(p.Base, 0)
		if wok != gok || got != want {
			t.Fatalf("block %v: BlockMajorityCityAt(0) = %v,%v; World says %v,%v",
				p.Base, got, gok, want, wok)
		}
	}
	if _, ok := e.BlockMajorityCityAt(0, 0); ok {
		t.Fatal("unrouted block reported a majority city")
	}
}

func TestBlockMajorityCityAtReflectsMoves(t *testing.T) {
	w := buildSmall(t, 1)
	e := w.Evolve(rand.New(rand.NewSource(9)), DefaultEvolutionParams())
	changed := 0
	for _, p := range w.RoutedSlash24s() {
		a, _ := e.BlockMajorityCityAt(p.Base, 0)
		b, _ := e.BlockMajorityCityAt(p.Base, 1e6)
		if a != b {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("no block majority changed even at a huge horizon; moves not applied")
	}
}
