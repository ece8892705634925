package atlas

import (
	"bytes"
	"testing"

	"routergeo/internal/geo"
	"routergeo/internal/ipx"
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
		fc.Targets = 6
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
			if p.Reported.DistanceKm(p.TrueCity.Coord) > DefaultConfig().ReportJitterKm+0.1 {
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
	for _, m := range ms {
		if m.Type != "traceroute" {
			t.Fatalf("bad type %q", m.Type)
		}
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
			if len(h.RTTs) != 3 {
				t.Fatalf("hop has %d RTT samples", len(h.RTTs))
			}
			if _, err := ipx.ParseAddr(h.From); err != nil {
				t.Fatalf("bad hop address %q", h.From)
			}
		}
		// The final hop must be the declared destination's router.
		last := m.Result[len(m.Result)-1]
		a, _ := ipx.ParseAddr(last.From)
		ifc, ok := w.IfaceByAddr(a)
		if !ok {
			t.Fatal("final hop address unknown to the world")
		}
		dstA, _ := ipx.ParseAddr(m.DstAddr)
		dstIfc, ok := w.IfaceByAddr(dstA)
		if !ok {
			t.Fatal("destination address unknown")
		}
		if w.Interfaces[ifc].Router != w.Interfaces[dstIfc].Router {
			t.Fatal("trace did not terminate at the destination router")
		}
	}
}

func TestBuiltinsRTTsMonotoneInPropagation(t *testing.T) {
	// Min RTT across samples at each hop should (weakly) increase along the
	// path up to queueing noise; we check the first hop is at least the
	// last-mile and every RTT is positive.
	_, f, ms := setup(t)
	probeByID := map[int]*Probe{}
	for i := range f.Probes {
		probeByID[f.Probes[i].ID] = &f.Probes[i]
	}
	for _, m := range ms {
		p := probeByID[m.ProbeID]
		first := m.Result[0]
		if first.MinRTT() < p.LastMileMs {
			t.Fatalf("first hop RTT %.3f under last-mile %.3f", first.MinRTT(), p.LastMileMs)
		}
	}
}

func TestProximityRuleSoundForHonestProbes(t *testing.T) {
	// The paper's 0.5 ms rule: a hop with min RTT <= 0.5 ms is within 50 km
	// of the probe. With truthful RTTs this must hold against the probe's
	// TRUE location for every probe, mislocated or not.
	w, f, ms := setup(t)
	probeByID := map[int]*Probe{}
	for i := range f.Probes {
		probeByID[f.Probes[i].ID] = &f.Probes[i]
	}
	checked := 0
	for _, m := range ms {
		p := probeByID[m.ProbeID]
		for _, h := range m.Result {
			if h.MinRTT() > 0.5 {
				continue
			}
			a, _ := ipx.ParseAddr(h.From)
			ifc, ok := w.IfaceByAddr(a)
			if !ok {
				continue
			}
			d := w.CoordOf(ifc).DistanceKm(p.TrueCoord)
			if d > rtt.MaxDistanceKmForRTT(0.5) {
				t.Fatalf("hop with %.3f ms RTT is %.1f km from the probe", h.MinRTT(), d)
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
	seen := map[string]bool{}
	for _, r := range f.Targets {
		rt := w.Routers[r]
		city := w.ASes[rt.AS].PoPs[rt.PoP].City
		key := city.Country + "/" + city.Name
		if seen[key] {
			t.Errorf("two targets in %s", key)
		}
		seen[key] = true
		if !w.ASes[rt.AS].Transit {
			t.Error("target not in a transit AS")
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	_, _, ms := setup(t)
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, ms[:50]); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 50 {
		t.Fatalf("decoded %d measurements", len(back))
	}
	for i := range back {
		if back[i].ProbeID != ms[i].ProbeID || back[i].DstAddr != ms[i].DstAddr ||
			len(back[i].Result) != len(ms[i].Result) {
			t.Fatalf("measurement %d mismatched after round trip", i)
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

func TestMinRTT(t *testing.T) {
	h := HopResult{RTTs: []float64{3.2, 1.1, 2.0}}
	if h.MinRTT() != 1.1 {
		t.Errorf("MinRTT = %v", h.MinRTT())
	}
}

// TestBuiltinsAllocateLessThanOncePerMeasurement runs the default fleet
// on the default world. RunBuiltins allocates one hop array and one RTT
// array per target and formats each reported address once, so it must
// allocate fewer times than it returns measurements.
func TestBuiltinsAllocateLessThanOncePerMeasurement(t *testing.T) {
	w, err := netsim.Build(netsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := Deploy(w, DefaultConfig())
	var ms []Measurement
	allocs := testing.AllocsPerRun(1, func() { ms = f.RunBuiltins(1) })
	if allocs >= float64(len(ms)) {
		t.Fatalf("RunBuiltins made %.0f allocations for %d measurements", allocs, len(ms))
	}
}

// TestBuiltinsResultsAreIsolated checks that the measurements sharing a
// target's backing arrays cannot write into one another: every Result
// and every hop's RTTs is capacity-capped, so an append copies.
func TestBuiltinsResultsAreIsolated(t *testing.T) {
	_, f, _ := setup(t)
	ms := f.RunBuiltins(2)
	for i, m := range ms {
		if cap(m.Result) != len(m.Result) {
			t.Fatalf("measurement %d: Result len %d cap %d", i, len(m.Result), cap(m.Result))
		}
		for j, h := range m.Result {
			if cap(h.RTTs) != len(h.RTTs) {
				t.Fatalf("measurement %d hop %d: RTTs len %d cap %d", i, j, len(h.RTTs), cap(h.RTTs))
			}
		}
	}
	// The first measurement's last hop and RTTs sit right before the
	// second's first ones.
	second := ms[1].Result[0]
	secondRTTs := append([]float64(nil), second.RTTs...)
	first := ms[0].Result
	_ = append(first, HopResult{Hop: -1, From: "0.0.0.0", RTTs: []float64{-1}})
	_ = append(first[len(first)-1].RTTs, -1)
	if got := ms[1].Result[0]; got.Hop != second.Hop || got.From != second.From {
		t.Fatalf("appending to the first Result rewrote the second's first hop: %+v", got)
	}
	for k, v := range ms[1].Result[0].RTTs {
		if v != secondRTTs[k] {
			t.Fatalf("appending to the first RTTs rewrote the second's: %v, want %v", ms[1].Result[0].RTTs, secondRTTs)
		}
	}
}
