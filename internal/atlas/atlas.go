// Package atlas reproduces the RIPE Atlas substrate of the paper's
// RTT-proximity ground truth (§2.3.2): a crowdsourced fleet of probes
// whose *reported* locations are mostly — but not always — correct, and
// the built-in traceroute measurements every probe runs toward a small set
// of well-known targets (the root-server analogues).
//
// The location-error model plants exactly the two failure modes the
// paper's §3.2 filters hunt: probes parked on default country coordinates,
// and probes that moved without their public location being updated.
// A measurement carries what RIPE Atlas publishes for a traceroute: probe
// id, destination, and per-hop addresses, with each hop's three RTT
// samples reduced to their minimum, the one value the proximity rule
// reads.
package atlas

import (
	"math/rand"

	"routergeo/internal/gazetteer"
	"routergeo/internal/geo"
	"routergeo/internal/ipx"
	"routergeo/internal/netsim"
	"routergeo/internal/rtt"
	"routergeo/internal/traceroute"
)

// Config parameterizes fleet deployment.
type Config struct {
	// Probes is the fleet size contributing built-in measurements.
	Probes int
	// Seed drives placement and sampling.
	Seed int64
}

// DefaultConfig deploys a fleet proportioned like the paper's.
func DefaultConfig() Config {
	return Config{Probes: 1400, Seed: 1}
}

// The fleet model, calibrated once to the paper's numbers.
const (
	// targets is the number of built-in traceroute destinations (13 root
	// servers in the real system).
	targets = 13
	// centroidFrac of probes report default country coordinates
	// (19 of 1,387 probes in the paper's data).
	centroidFrac float64 = 0.014
	// movedFrac of probes physically moved and report a stale city.
	movedFrac float64 = 0.012
	// reportJitterKm bounds how far an honest probe's reported point sits
	// from its city centre (hosts pin their city, not their house).
	reportJitterKm float64 = 2
	// datacenterFrac of probes are hosted in facilities (Atlas anchors and
	// probes in racks): they attach directly to a transit router with a
	// very fast access link. These probes are what makes the paper's
	// RTT-proximity dataset transit-heavy (74.5% transit, §2.3.3).
	datacenterFrac float64 = 0.38
)

// regionWeights places probes per registry region. It mirrors Atlas's
// strong European skew, which is what makes the paper's RTT-proximity
// ground truth RIPE-heavy (Table 1).
var regionWeights = map[geo.RIR]float64{
	geo.RIPENCC: 0.68,
	geo.ARIN:    0.14,
	geo.APNIC:   0.09,
	geo.AFRINIC: 0.045,
	geo.LACNIC:  0.045,
}

// Probe is one Atlas probe.
type Probe struct {
	// ID is the probe's index in its fleet's Probes.
	ID int
	// TrueCity and TrueCoord are where the probe actually is.
	TrueCity  gazetteer.City
	TrueCoord geo.Coordinate
	// Reported is the crowdsourced public location — what the ground-truth
	// method has to trust.
	Reported geo.Coordinate
	// ReportedCountry is the ISO2 code of the public location.
	ReportedCountry string
	// Mislocated marks probes whose public location is materially wrong
	// (internal truth; the §3.2 filters must find these on their own).
	Mislocated bool
	// Router is the first-hop attachment point.
	Router netsim.RouterID
	// LastMileMs is the probe's access-link RTT contribution.
	LastMileMs float64
	// Datacenter marks facility-hosted probes, which are racked next to
	// their first router. Residential probes instead sit behind a home
	// gateway whose private address never appears in public datasets, so
	// their first *public* hop is hop 2 — the reason the paper finds >80%
	// of RTT-proximate addresses at least two hops from their probes.
	Datacenter bool
}

// Fleet is a deployed probe population plus its built-in targets.
type Fleet struct {
	World   *netsim.World
	Probes  []Probe
	Targets []netsim.RouterID
}

// Deploy places a fleet. Deterministic for a given cfg.Seed.
func Deploy(w *netsim.World, cfg Config) *Fleet {
	rng := rand.New(rand.NewSource(cfg.Seed))

	f := &Fleet{World: w}
	for id := 0; id < cfg.Probes; id++ {
		rir := geo.SampleRIR(rng, regionWeights)
		country := w.Gaz.SampleCountry(rng, rir)
		city := w.Gaz.SampleCity(rng, country.ISO2)
		trueCoord := city.Coord.Offset(rng.Float64()*netsim.CityJitterKm, rng.Float64()*360)

		p := Probe{
			ID:              id,
			TrueCity:        city,
			TrueCoord:       trueCoord,
			Reported:        city.Coord.Offset(rng.Float64()*reportJitterKm, rng.Float64()*360),
			ReportedCountry: city.Country,
			LastMileMs:      rtt.LastMileMs(rng),
		}
		switch x := rng.Float64(); {
		case x < centroidFrac:
			// Default country coordinates: the host never set a location.
			p.Reported = country.Centroid.Offset(rng.Float64()*1, rng.Float64()*360)
			p.Mislocated = true
		case x < centroidFrac+movedFrac:
			// The probe moved; its public location is its previous city.
			prev := w.Gaz.SampleCity(rng, "")
			for prev.Coord.DistanceKm(city.Coord) < 200 {
				prev = w.Gaz.SampleCity(rng, "")
			}
			p.Reported = prev.Coord.Offset(rng.Float64()*reportJitterKm, rng.Float64()*360)
			p.ReportedCountry = prev.Country
			p.Mislocated = true
		}
		datacenter := rng.Float64() < datacenterFrac
		if datacenter {
			// Facility-hosted probe: racked next to a transit router, with a
			// LAN-grade access link. Relocate the probe's true position to
			// the facility. Facilities are metro-local: only rack the probe
			// if its own city has a transit PoP, else it stays residential.
			if r, ok := w.NearestTransitInCity(trueCoord, city); ok {
				p.Router = r
				p.TrueCoord = w.Routers[r].Coord.Offset(0.05+rng.Float64()*0.2, rng.Float64()*360)
				p.LastMileMs = rtt.FacilityLinkMs(rng)
				p.Datacenter = true
				f.Probes = append(f.Probes, p)
				continue
			}
		}
		// Probes sit behind access ISPs: attach to the nearest *stub* router
		// in the probe's country when one is close, falling back to any
		// nearby router. This puts a real access network between the probe
		// and the transit core, as with real Atlas probes (most proximate
		// hops are then ≥2 hops out, §2.3.2).
		alt, altOK := w.NearestRouter(trueCoord, city.Country)
		r, ok := w.NearestStubInCountry(trueCoord, city.Country)
		if ok {
			// Attach at the access edge of that PoP: the last router of the
			// stub's aggregation chain, so first hops climb the metro.
			rt := &w.Routers[r]
			pop := w.ASes[rt.AS].PoPs[rt.PoP]
			r = pop.Routers[len(pop.Routers)-1]
			// If the nearest stub is much farther than the nearest router
			// overall, the probe's host is plugged in elsewhere — take the
			// closer attachment.
			if altOK && w.Routers[alt].Coord.DistanceKm(trueCoord)+60 < w.Routers[r].Coord.DistanceKm(trueCoord) {
				r = alt
			}
		} else {
			r, ok = alt, altOK
		}
		if ok {
			p.Router = r
			// The access link must respect geography: a probe whose nearest
			// router is hundreds of kilometres away cannot see it in under
			// a millisecond, or the 0.5 ms proximity rule would be unsound.
			p.LastMileMs += rtt.PropagationMs(trueCoord, w.Routers[r].Coord)
		}
		f.Probes = append(f.Probes, p)
	}
	f.Targets = pickTargets(w, rng, targets)
	return f
}

// pickTargets selects built-in destinations: transit core routers in
// distinct cities, like the anycast root-server instances the real
// built-ins trace toward.
func pickTargets(w *netsim.World, rng *rand.Rand, n int) []netsim.RouterID {
	var candidates []netsim.RouterID
	for i := range w.Routers {
		if w.ASes[w.Routers[i].AS].Transit {
			candidates = append(candidates, w.Routers[i].ID)
		}
	}
	rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	var out []netsim.RouterID
	usedCity := make([]bool, gazetteer.NumCities()+1)
	for _, r := range candidates {
		if len(out) == n {
			break
		}
		city := w.ASes[w.Routers[r].AS].PoPs[w.Routers[r].PoP].City.ID
		if usedCity[city] {
			continue
		}
		usedCity[city] = true
		out = append(out, r)
	}
	return out
}

// HopResult is one traceroute hop. A built-in sends three packets per
// hop, and RTTMs is the smallest of their RTTs, the value the proximity
// rule uses. It holds no pointers, so a campaign's hop arrays give the
// garbage collector nothing to mark.
type HopResult struct {
	Hop   int
	From  ipx.Addr
	RTTMs float64
}

// Measurement is one built-in traceroute result.
type Measurement struct {
	ProbeID int
	Result  []HopResult
}

// RunBuiltins runs every probe's built-in traceroutes to every target and
// returns their results. One shortest-path tree per *target* serves the
// entire fleet: links are symmetric, so the tree rooted at the target is
// every probe's reverse-path table.
func (f *Fleet) RunBuiltins(seed int64) []Measurement {
	rng := rand.New(rand.NewSource(seed))

	out := make([]Measurement, 0, len(f.Targets)*len(f.Probes))
	for _, target := range f.Targets {
		tree := traceroute.BuildTree(f.World, target)
		// One backing array of hops serves every probe's result toward
		// this target; each measurement gets a capacity-capped window, so
		// appending to one copies instead of overwriting its neighbour.
		hopsTotal := 0
		for pi := range f.Probes {
			if r := f.Probes[pi].Router; tree.Reachable(r) {
				hopsTotal += tree.HopCount(r) + 1
			}
		}
		results := make([]HopResult, hopsTotal)
		for pi := range f.Probes {
			p := &f.Probes[pi]
			if !tree.Reachable(p.Router) {
				continue
			}
			total := tree.DistMs(p.Router)
			// Residential probes burn hop 1 on their home gateway, whose
			// private address is invisible to public datasets.
			hop := 1
			if !p.Datacenter {
				hop = 2
			}
			n := tree.HopCount(p.Router) + 1
			m := Measurement{ProbeID: p.ID, Result: results[:n:n]}
			results = results[n:]
			// Forward path: walk Parent pointers from the probe's router to
			// the tree root (the target).
			r, ifc := p.Router, f.World.Routers[p.Router].Ifaces[0]
			for j := range m.Result {
				prop := p.LastMileMs + 2*(total-tree.DistMs(r)) + float64(j)*rtt.PerHopMs
				h := &m.Result[j]
				h.Hop, h.From = hop, f.World.Interfaces[ifc].Addr
				// The fastest of three packets, each queueing for an
				// exponential time of mean QueueMeanMs, queues for an
				// exponential time of a third of that mean: one draw.
				h.RTTMs = prop + rng.ExpFloat64()*(rtt.QueueMeanMs/3)
				hop++
				if r != target {
					// tree.ParentIface(r) is the interface at r on the link
					// to its parent; its peer is the parent's ingress.
					ifc = f.World.PeerIface(tree.ParentIface(r))
					r = tree.Parent(r)
				}
			}
			out = append(out, m)
		}
	}
	return out
}
