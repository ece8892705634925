package rdns

import (
	"math/rand"
	"strings"
	"testing"

	"routergeo/internal/hints"
	"routergeo/internal/netsim"
)

var (
	cachedWorld *netsim.World
	cachedZone  *Zone
	cachedDict  *hints.Dictionary
)

func setup(t *testing.T) (*netsim.World, *Zone, *hints.Dictionary) {
	t.Helper()
	if cachedWorld == nil {
		cfg := netsim.DefaultConfig()
		cfg.Seed = 9
		cfg.ASes = 200
		w, err := netsim.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cachedWorld = w
		cachedDict = hints.NewDictionary(w.Gaz)
		cachedZone = Synthesize(w, cachedDict, DefaultConfig())
	}
	return cachedWorld, cachedZone, cachedDict
}

func TestCoverageMatchesConfig(t *testing.T) {
	w, z, _ := setup(t)
	seedDomains := map[string]bool{}
	for _, d := range hints.GroundTruthDomains() {
		seedDomains[d] = true
	}
	var seedNamed, seedTotal, genNamed, genTotal int
	for i := range w.Interfaces {
		id := netsim.IfaceID(i)
		_, has := z.Lookup(id)
		if seedDomains[w.ASOfIface(id).Domain] {
			seedTotal++
			if has {
				seedNamed++
			}
		} else {
			genTotal++
			if has {
				genNamed++
			}
		}
	}
	if f := float64(seedNamed) / float64(seedTotal); f < 0.92 {
		t.Errorf("seed-domain PTR coverage = %.2f, want ~0.97", f)
	}
	if f := float64(genNamed) / float64(genTotal); f < 0.45 || f > 0.65 {
		t.Errorf("generic PTR coverage = %.2f, want ~0.55", f)
	}
}

func TestNamesUnique(t *testing.T) {
	w, z, _ := setup(t)
	seen := map[string]netsim.IfaceID{}
	for i := range w.Interfaces {
		id := netsim.IfaceID(i)
		name, ok := z.Lookup(id)
		if !ok {
			continue
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("hostname %q assigned to both %d and %d", name, prev, id)
		}
		seen[name] = id
	}
}

func TestNamesEndInOperatorDomain(t *testing.T) {
	w, z, _ := setup(t)
	for i := range w.Interfaces {
		id := netsim.IfaceID(i)
		name, ok := z.Lookup(id)
		if !ok {
			continue
		}
		if !strings.HasSuffix(name, "."+w.ASOfIface(id).Domain) {
			t.Fatalf("name %q does not end in %q", name, w.ASOfIface(id).Domain)
		}
	}
}

func TestHintedNamesDecodeToTrueCity(t *testing.T) {
	// The encode/decode contract: a hinted name, decoded with the DRoP
	// rules, must resolve to the interface's true city. This is the
	// soundness of the DNS ground-truth method in a static world.
	w, z, dict := setup(t)
	dec := hints.NewDecoder(dict)
	var hinted, decoded, correct int
	for i := range w.Interfaces {
		id := netsim.IfaceID(i)
		name, ok := z.Lookup(id)
		if !ok || !z.hinted[id] {
			continue
		}
		hinted++
		city, _, ok := dec.Decode(name)
		if !ok {
			continue
		}
		decoded++
		truth := w.CityOf(id)
		if city.Country == truth.Country && city.Name == truth.Name {
			correct++
		}
	}
	if hinted == 0 {
		t.Fatal("no hinted names generated")
	}
	if f := float64(decoded) / float64(hinted); f < 0.95 {
		t.Errorf("only %.2f of hinted names decode", f)
	}
	if decoded > 0 && correct != decoded {
		t.Errorf("%d of %d decoded names point at the wrong city", decoded-correct, decoded)
	}
}

func TestUnhintedNamesDoNotDecode(t *testing.T) {
	w, z, dict := setup(t)
	dec := hints.NewDecoder(dict)
	for i := range w.Interfaces {
		id := netsim.IfaceID(i)
		name, ok := z.Lookup(id)
		if !ok || z.hinted[id] {
			continue
		}
		if city, _, ok := dec.Decode(name); ok {
			t.Fatalf("unhinted name %q decoded to %s/%s", name, city.Country, city.Name)
		}
	}
}

func TestSeedDomainsUseTheirSchemes(t *testing.T) {
	w, z, _ := setup(t)
	schemes := map[string]string{} // domain -> one example name
	for i := range w.Interfaces {
		id := netsim.IfaceID(i)
		name, ok := z.Lookup(id)
		if !ok {
			continue
		}
		d := w.ASOfIface(id).Domain
		if _, have := schemes[d]; !have {
			schemes[d] = name
		}
	}
	checks := map[string]string{
		"cogentco.com": ".atlas.",
		"ntt.net":      ".bb.gin.",
		"pnap.net":     "core",
	}
	for domain, marker := range checks {
		example, ok := schemes[domain]
		if !ok {
			t.Errorf("no names for %s", domain)
			continue
		}
		if !strings.Contains(example, marker) {
			t.Errorf("%s name %q missing scheme marker %q", domain, example, marker)
		}
	}
}

func TestChurnSemantics(t *testing.T) {
	w, z, dict := setup(t)
	dec := hints.NewDecoder(dict)
	evo := w.Evolve(rand.New(rand.NewSource(2)), netsim.DefaultEvolutionParams())
	const horizon = 16.0
	var lost, renamed, kept, staleWrong int
	for i := range w.Interfaces {
		id := netsim.IfaceID(i)
		orig, ok := z.Lookup(id)
		if !ok {
			continue
		}
		now, okNow := z.LookupAt(id, evo, horizon)
		switch {
		case evo.RDNSLost(id, horizon):
			if okNow {
				t.Fatalf("lost record still resolves: %q", now)
			}
			lost++
			continue
		case !okNow:
			t.Fatal("record disappeared without loss event")
		}
		if evo.Renamed(id, horizon) {
			if now == orig {
				t.Fatalf("renamed interface kept name %q", orig)
			}
			renamed++
		} else if now != orig {
			t.Fatalf("unrenamed interface changed name %q -> %q", orig, now)
		} else {
			kept++
		}
		// Stale-hint moves: name unchanged but location changed; the decoded
		// hint must now point at the OLD city (a misleading hint, §3.1).
		if evo.HintStale(id, horizon) && z.hinted[id] {
			city, _, ok := dec.Decode(now)
			if ok {
				old := w.CityOf(id)
				if city.Country == old.Country && city.Name == old.Name {
					staleWrong++
				}
			}
		}
		// Updated moves: decoded hint points at the NEW city.
		if evo.Moved(id, horizon) && !evo.HintStale(id, horizon) &&
			z.hinted[id] && !evo.HintUndecodable(id, horizon) {
			city, _, ok := dec.Decode(now)
			if !ok {
				t.Fatalf("moved+updated name %q does not decode", now)
			}
			want := evo.CityAt(id, horizon)
			if city.Country != want.Country || city.Name != want.Name {
				t.Fatalf("moved name %q decodes to %s/%s, want %s/%s",
					now, city.Country, city.Name, want.Country, want.Name)
			}
		}
		// Undecodable renames must not decode.
		if evo.HintUndecodable(id, horizon) {
			if _, _, ok := dec.Decode(now); ok {
				t.Fatalf("undecodable name %q decoded", now)
			}
		}
	}
	if lost == 0 || renamed == 0 || kept == 0 {
		t.Errorf("churn produced degenerate mix: lost=%d renamed=%d kept=%d", lost, renamed, kept)
	}
	if staleWrong == 0 {
		t.Log("note: no stale-hint cases in this sample (rare but possible)")
	}
}

func TestLookupAtMonthZeroMatchesLookup(t *testing.T) {
	w, z, _ := setup(t)
	evo := w.Evolve(rand.New(rand.NewSource(3)), netsim.DefaultEvolutionParams())
	for i := 0; i < w.NumInterfaces(); i += 53 {
		id := netsim.IfaceID(i)
		a, okA := z.Lookup(id)
		b, okB := z.LookupAt(id, evo, 0)
		if okA != okB || a != b {
			t.Fatalf("LookupAt(0) diverges: %q/%v vs %q/%v", a, okA, b, okB)
		}
	}
}

func TestZoneDeterministic(t *testing.T) {
	w, _, dict := setup(t)
	a := Synthesize(w, dict, DefaultConfig())
	b := Synthesize(w, dict, DefaultConfig())
	for i := 0; i < w.NumInterfaces(); i += 31 {
		an, aok := a.Lookup(netsim.IfaceID(i))
		bn, bok := b.Lookup(netsim.IfaceID(i))
		if an != bn || aok != bok {
			t.Fatal("zone synthesis not deterministic")
		}
	}
}
