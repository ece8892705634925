package atlas

import (
	"reflect"
	"testing"

	"routergeo/internal/geo"
	"routergeo/internal/netsim"
	"routergeo/internal/rtt"
)

var (
	cachedWorld *netsim.World
	cachedFleet *Fleet
	cachedMs    []Measurement
)

func setup(t *testing.T) (*netsim.World, *Fleet, []Measurement) {
	t.Helper()
	if cachedWorld == nil {
		cfg := netsim.DefaultConfig()
		cfg.Seed = 11
		cfg.ASes = 200
		w, err := netsim.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cachedWorld = w
		fc := DefaultConfig()
		fc.Probes = 300
		cachedFleet = Deploy(w, fc)
		cachedMs = cachedFleet.RunBuiltins(2)
	}
	return cachedWorld, cachedFleet, cachedMs
}

func TestFleetRegionalSkew(t *testing.T) {
	w, f, _ := setup(t)
	counts := map[geo.RIR]int{}
	for _, p := range f.Probes {
		counts[w.Gaz.RIROf(p.TrueCity.Country)]++
	}
	if counts[geo.RIPENCC] <= counts[geo.ARIN] {
		t.Errorf("fleet not Europe-heavy: RIPE=%d ARIN=%d", counts[geo.RIPENCC], counts[geo.ARIN])
	}
	if counts[geo.RIPENCC]+counts[geo.ARIN]+counts[geo.APNIC]+counts[geo.LACNIC]+counts[geo.AFRINIC] != len(f.Probes) {
		t.Error("probes outside the five regions")
	}
}

func TestMislocatedProbesExist(t *testing.T) {
	_, f, _ := setup(t)
	var centroidish, moved int
	for _, p := range f.Probes {
		if !p.Mislocated {
			// Honest probes report within a few km of their true city.
			if p.Reported.DistanceKm(p.TrueCity.Coord) > reportJitterKm+0.1 {
				t.Fatalf("honest probe %d reported %.1f km from its city", p.ID,
					p.Reported.DistanceKm(p.TrueCity.Coord))
			}
			continue
		}
		if p.Reported.DistanceKm(p.TrueCoord) > 150 {
			moved++
		} else {
			centroidish++
		}
	}
	if centroidish+moved == 0 {
		t.Error("no mislocated probes; §3.2's filters have nothing to catch")
	}
}

func TestProbeAttachmentInCountry(t *testing.T) {
	w, f, _ := setup(t)
	in := 0
	for _, p := range f.Probes {
		r := w.Routers[p.Router]
		if w.ASes[r.AS].PoPs[r.PoP].City.Country == p.TrueCity.Country {
			in++
		}
		if p.LastMileMs <= 0 {
			t.Fatalf("probe %d has non-positive last-mile %f", p.ID, p.LastMileMs)
		}
	}
	// Attachment prefers routers in the probe's own country; with 200
	// ASes most countries have routers. Cross-border attachment is allowed
	// (fallback), but the common case must dominate: 263 of 300 probes
	// (0.877) attach in their true country in this world.
	if share := float64(in) / float64(len(f.Probes)); share < 0.8 {
		t.Errorf("%d of %d probes (%.3f) attach in their true country, want at least 0.8", in, len(f.Probes), share)
	}
}

func TestBuiltinsShape(t *testing.T) {
	w, f, ms := setup(t)
	if len(ms) == 0 {
		t.Fatal("no measurements")
	}
	if len(ms) > len(f.Probes)*len(f.Targets) {
		t.Fatalf("more measurements (%d) than probe-target pairs", len(ms))
	}
	ti := 0 // RunBuiltins measures the targets in order
	for _, m := range ms {
		if len(m.Result) == 0 {
			t.Fatal("empty result")
		}
		// Hop numbering starts at 1 for facility probes and 2 for
		// residential ones (their hop 1 is the private home gateway),
		// and must be consecutive after that.
		if m.Result[0].Hop != 1 && m.Result[0].Hop != 2 {
			t.Fatalf("first hop numbered %d", m.Result[0].Hop)
		}
		prev := m.Result[0].Hop - 1
		for _, h := range m.Result {
			if h.Hop != prev+1 {
				t.Fatalf("hop numbering broken: %d after %d", h.Hop, prev)
			}
			prev = h.Hop
			if _, ok := w.IfaceByAddr(h.From); !ok {
				t.Fatalf("hop address %v unknown to the world", h.From)
			}
			if h.RTTMs <= 0 {
				t.Fatalf("hop from %v has RTT %v", h.From, h.RTTMs)
			}
		}
		// The final hop must be the router of this measurement's target,
		// which is the previous measurement's or a later one.
		last := m.Result[len(m.Result)-1]
		ifc, ok := w.IfaceByAddr(last.From)
		if !ok {
			t.Fatal("final hop address unknown to the world")
		}
		for ti < len(f.Targets) && f.Targets[ti] != w.Interfaces[ifc].Router {
			ti++
		}
		if ti == len(f.Targets) {
			t.Fatal("trace did not terminate at its target's router")
		}
	}
}

func TestBuiltinsRTTsMonotoneInPropagation(t *testing.T) {
	// A hop's min RTT should (weakly) increase along the path up to
	// queueing noise; we check the first hop is at least the last-mile.
	_, f, ms := setup(t)
	for _, m := range ms {
		p := &f.Probes[m.ProbeID]
		first := m.Result[0]
		if first.RTTMs < p.LastMileMs {
			t.Fatalf("first hop RTT %.3f under last-mile %.3f", first.RTTMs, p.LastMileMs)
		}
	}
}

func TestProximityRuleSoundForHonestProbes(t *testing.T) {
	// The paper's 0.5 ms rule: a hop with min RTT <= 0.5 ms is within 50 km
	// of the probe. With truthful RTTs this must hold against the probe's
	// TRUE location for every probe, mislocated or not.
	w, f, ms := setup(t)
	checked := 0
	for _, m := range ms {
		p := &f.Probes[m.ProbeID]
		for _, h := range m.Result {
			if h.RTTMs > 0.5 {
				continue
			}
			ifc, ok := w.IfaceByAddr(h.From)
			if !ok {
				continue
			}
			d := w.CoordOf(ifc).DistanceKm(p.TrueCoord)
			if d > rtt.MaxDistanceKmForRTT(0.5) {
				t.Fatalf("hop with %.3f ms RTT is %.1f km from the probe", h.RTTMs, d)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Error("no sub-0.5ms hops found; RTT-proximity ground truth would be empty")
	}
}

func TestTargetsDistinctCities(t *testing.T) {
	w, f, _ := setup(t)
	seen := map[[2]string]bool{}
	for _, r := range f.Targets {
		rt := w.Routers[r]
		city := w.ASes[rt.AS].PoPs[rt.PoP].City
		key := [2]string{city.Country, city.Name}
		if seen[key] {
			t.Errorf("two targets in %s/%s", key[0], key[1])
		}
		seen[key] = true
		if !w.ASes[rt.AS].Transit {
			t.Error("target not in a transit AS")
		}
	}
}

func TestDeployDeterministic(t *testing.T) {
	w, _, _ := setup(t)
	cfg := DefaultConfig()
	cfg.Probes = 50
	a := Deploy(w, cfg)
	b := Deploy(w, cfg)
	for i := range a.Probes {
		if a.Probes[i].Reported != b.Probes[i].Reported || a.Probes[i].Router != b.Probes[i].Router {
			t.Fatal("deployment not deterministic")
		}
	}
}

// TestBuiltinsAllocatePerTarget runs the default fleet on the default
// world. RunBuiltins allocates per target one hop array, one destination
// string and the target's shortest-path tree, whose queue grows a few
// times, and nothing per measurement or per hop: 164 allocations for 13
// targets and 18,200 measurements. The bound is 13 per target.
func TestBuiltinsAllocatePerTarget(t *testing.T) {
	w, err := netsim.Build(netsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := Deploy(w, DefaultConfig())
	var ms []Measurement
	allocs := testing.AllocsPerRun(1, func() { ms = f.RunBuiltins(1) })
	if limit := float64(13 * len(f.Targets)); allocs > limit {
		t.Fatalf("RunBuiltins made %.0f allocations for %d targets (%d measurements), want at most %.0f",
			allocs, len(f.Targets), len(ms), limit)
	}
}

// TestBuiltinsResultsAreIsolated checks that the measurements sharing a
// target's hop array cannot write into one another: every Result is
// capacity-capped, so an append copies.
func TestBuiltinsResultsAreIsolated(t *testing.T) {
	_, f, _ := setup(t)
	ms := f.RunBuiltins(2)
	for i, m := range ms {
		if cap(m.Result) != len(m.Result) {
			t.Fatalf("measurement %d: Result len %d cap %d", i, len(m.Result), cap(m.Result))
		}
	}
	// The first measurement's last hop sits right before the second's
	// first one.
	second := ms[1].Result[0]
	first := ms[0].Result
	_ = append(first, HopResult{Hop: -1, From: 1, RTTMs: -1})
	if got := ms[1].Result[0]; got != second {
		t.Fatalf("appending to the first Result rewrote the second's first hop: %+v, want %+v", got, second)
	}
}

// TestHopResultHoldsNoPointers walks HopResult's fields: a pointer,
// string, slice, map, channel, function or interface anywhere in it
// would make every campaign's hop arrays something the garbage collector
// has to mark.
func TestHopResultHoldsNoPointers(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
			reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
			t.Errorf("%s is a %s", path, ty.Kind())
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		}
	}
	walk("HopResult", reflect.TypeOf(HopResult{}))
}
