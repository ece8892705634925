package vendors

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"routergeo/internal/gazetteer"
	"routergeo/internal/geo"
	"routergeo/internal/geodb"
	"routergeo/internal/hints"
	"routergeo/internal/ipx"
	"routergeo/internal/netsim"
	"routergeo/internal/rdns"
)

// Params is one vendor's pipeline configuration. The four presets below
// (IP2LocationLite, MaxMindPaid, MaxMindGeoLite, NetAcuity) encode the
// behavioural differences the paper observes; everything else is shared.
type Params struct {
	Name string
	// CoordFamily keys the vendor's city-coordinate generator. The two
	// MaxMind products share a family, which is why 68% of their answers
	// carry *identical* coordinates in Figure 1.
	CoordFamily string
	Seed        int64

	// AllocCoverage is the probability an allocation gets any record at
	// all (MaxMind's country coverage is ~99.3%, not 100%).
	AllocCoverage float64
	// RegistryCityForAll emits the org HQ city for every record
	// (IP2Location's and NetAcuity's near-total city coverage).
	RegistryCityForAll bool
	// StubCityProb emits a city for small (/22 and longer) allocations
	// even when RegistryCityForAll is false: single-site orgs'
	// registration city is usually right, and MaxMind keeps those when it
	// has enough confidence.
	StubCityProb float64

	// UseSWIP consumes per-/24 SWIP entries; SWIPTrust is the probability
	// a present entry is emitted as a city record.
	UseSWIP   bool
	SWIPTrust float64

	// CorrectionRate is the probability the vendor's measurement pipeline
	// produced a city fix for a routed /24; CorrectionCityAcc is the
	// probability that fix names the block's true majority city.
	// CorrectionTransitFactor discounts the rate for blocks announced by
	// transit ASes: latency-based pipelines resolve eyeball blocks far
	// better than backbone interfaces, which is one reason every database
	// does worse on routers than on end hosts (§8).
	CorrectionRate          float64
	CorrectionCityAcc       float64
	CorrectionTransitFactor float64

	// CoordStaleProb is the per-city probability that this *product*
	// ships an outdated coordinate for the city (a few km off the current
	// one). It models stale snapshots: the free GeoLite lags the paid
	// product, which is why their coordinates are not always identical
	// (Figure 1: 68% identical, most of the rest nearby).
	CoordStaleProb float64

	// UseHints enables the rDNS pipeline (NetAcuity only, per §5.2.4);
	// HintDecodeRate is the chance a hinted hostname is in the vendor's
	// rule set and decoded into a per-address record.
	UseHints       bool
	HintDecodeRate float64

	// City-coordinate placement: vendors do not copy GeoNames verbatim.
	// Offsets stay small (the paper found >99% of vendor city coordinates
	// within 40 km of GeoNames, §4) with rare outliers.
	CityCoordJitterKm    float64
	CityCoordOutlierProb float64
	CityCoordOutlierKm   float64
}

// IP2LocationLite: registration data for everything — near-perfect
// city-level coverage, lowest accuracy.
func IP2LocationLite() Params {
	return Params{
		Name: "IP2Location-Lite", CoordFamily: "ip2location", Seed: 11,
		AllocCoverage: 1.0, RegistryCityForAll: true,
		UseSWIP: true, SWIPTrust: 0.9,
		CorrectionRate: 0.06, CorrectionCityAcc: 0.75, CorrectionTransitFactor: 0.5,
		CityCoordJitterKm: 4, CityCoordOutlierProb: 0.004, CityCoordOutlierKm: 80,
	}
}

// MaxMindPaid: confidence-gated city records — corrections plus SWIP in
// ARIN, country-only elsewhere.
func MaxMindPaid() Params {
	return Params{
		Name: "MaxMind-Paid", CoordFamily: "maxmind", Seed: 12,
		AllocCoverage: 0.96, StubCityProb: 0.72,
		UseSWIP: true, SWIPTrust: 0.45,
		CorrectionRate: 0.20, CorrectionCityAcc: 0.90, CorrectionTransitFactor: 0.45,
		CityCoordJitterKm: 3, CityCoordOutlierProb: 0.003, CityCoordOutlierKm: 70,
	}
}

// MaxMindGeoLite: the free variant — same pipeline, fewer and staler
// corrections, less SWIP trust.
func MaxMindGeoLite() Params {
	return Params{
		Name: "MaxMind-GeoLite", CoordFamily: "maxmind", Seed: 13,
		AllocCoverage: 0.96, StubCityProb: 0.55,
		UseSWIP: true, SWIPTrust: 0.20,
		CorrectionRate: 0.09, CorrectionCityAcc: 0.90, CorrectionTransitFactor: 0.45,
		CoordStaleProb:    0.30,
		CityCoordJitterKm: 3, CityCoordOutlierProb: 0.003, CityCoordOutlierKm: 70,
	}
}

// NetAcuity: full coverage, the widest measurement pipeline, and the only
// vendor consuming DNS hints (the paper's §5.2.4 inference).
func NetAcuity() Params {
	return Params{
		Name: "NetAcuity", CoordFamily: "netacuity", Seed: 14,
		AllocCoverage: 1.0, RegistryCityForAll: true,
		UseSWIP: true, SWIPTrust: 0.5,
		CorrectionRate: 0.45, CorrectionCityAcc: 0.92,
		UseHints: true, HintDecodeRate: 0.62,
		CityCoordJitterKm: 3, CityCoordOutlierProb: 0.002, CityCoordOutlierKm: 60,
	}
}

// AllParams returns the four vendor configurations in the paper's
// presentation order.
func AllParams() []Params {
	return []Params{IP2LocationLite(), MaxMindGeoLite(), MaxMindPaid(), NetAcuity()}
}

// Inputs bundles what a vendor pipeline may consume.
type Inputs struct {
	World *netsim.World
	Feed  *Feed
	// Zone and Decoder feed the hint pipeline; only consulted when
	// Params.UseHints is set.
	Zone    *rdns.Zone
	Decoder *hints.Decoder

	// Evo and AsOfMonths rebuild the vendor as of a churn horizon: the
	// measurement pipeline observes each block's majority city after the
	// timeline's moves, and the hint pipeline reads the evolved zone
	// (renames, stale hints, lost records). A horizon of zero with a
	// non-nil Evo is byte-identical to the un-evolved build — LookupAt
	// and BlockMajorityCityAt are exact identities at month 0 — which is
	// what lets the longitudinal series share epoch 0 with every other
	// experiment. AsOfMonths != 0 requires Evo.
	Evo        *netsim.Evolution
	AsOfMonths float64
}

// Build runs one vendor pipeline and returns its database.
func Build(in Inputs, p Params) (*geodb.DB, error) {
	if in.World == nil || in.Feed == nil {
		return nil, fmt.Errorf("vendors: %s: missing world or feed", p.Name)
	}
	if p.UseHints && (in.Zone == nil || in.Decoder == nil) {
		return nil, fmt.Errorf("vendors: %s: hint pipeline requires zone and decoder", p.Name)
	}
	if in.AsOfMonths != 0 && in.Evo == nil {
		return nil, fmt.Errorf("vendors: %s: AsOfMonths=%v requires an evolution timeline", p.Name, in.AsOfMonths)
	}
	majorityCity := in.World.BlockMajorityCity
	lookupPTR := in.Zone.Lookup
	if in.Evo != nil {
		majorityCity = func(base ipx.Addr) (gazetteer.City, bool) {
			return in.Evo.BlockMajorityCityAt(base, in.AsOfMonths)
		}
		lookupPTR = func(id netsim.IfaceID) (string, bool) {
			return in.Zone.LookupAt(id, in.Evo, in.AsOfMonths)
		}
	}
	rng := rand.New(rand.NewSource(p.Seed))
	coords := newCoordTable(p)
	b := geodb.NewBuilder(p.Name)

	// Evidence draws are keyed by (coord family, purpose, block), not by a
	// sequential RNG: products of one vendor family then share their
	// measurement corrections and SWIP decisions, with a lower-rate product
	// holding a strict subset. That reproduces the paper's MaxMind pair
	// behaviour — 99.6% country agreement and 68% identical coordinates —
	// without any cross-product coordination in the pipeline itself.
	draw := func(purpose string, base ipx.Addr) float64 {
		h := fnv.New64a()
		h.Write([]byte(p.CoordFamily))
		h.Write([]byte{0})
		h.Write([]byte(purpose))
		h.Write([]byte{0})
		var buf [4]byte
		buf[0], buf[1], buf[2], buf[3] = byte(base>>24), byte(base>>16), byte(base>>8), byte(base)
		h.Write(buf[:])
		return float64(h.Sum64()%1000000) / 1000000
	}
	subRNG := func(purpose string, base ipx.Addr) *rand.Rand {
		h := fnv.New64a()
		h.Write([]byte(p.CoordFamily))
		h.Write([]byte{1})
		h.Write([]byte(purpose))
		var buf [4]byte
		buf[0], buf[1], buf[2], buf[3] = byte(base>>24), byte(base>>16), byte(base>>8), byte(base)
		h.Write(buf[:])
		return newKeyedRand(int64(h.Sum64()))
	}

	const (
		layerBase = iota
		layerSWIP
		layerCorrection
		layerHint
	)

	for ai, info := range in.Feed.Allocations {
		if draw("alloc", info.Alloc.Prefix.Base) >= p.AllocCoverage {
			continue
		}
		// Base record: registration country, optionally registration city.
		base := geodb.Record{
			Country:    info.Org.HQCountry,
			Resolution: geodb.ResolutionCountry,
			BlockBits:  info.Alloc.Prefix.Bits,
		}
		registryCity := p.RegistryCityForAll ||
			(info.Alloc.Prefix.Bits >= 22 && draw("stubcity", info.Alloc.Prefix.Base) < p.StubCityProb)
		if registryCity {
			if c, ok := in.World.Gaz.City(info.Org.HQCountry, info.Org.HQCity); ok {
				base.City = c.Name
				base.Coord = coords.coordFor(c)
				base.Resolution = geodb.ResolutionCity
			}
		}
		b.AddPrefix(layerBase, info.Alloc.Prefix, base)

		for _, blkBase := range in.Feed.BlocksOf[ai] {
			blk := ipx.Prefix{Base: blkBase, Bits: 24}

			if p.UseSWIP {
				if swip, ok := in.Feed.SWIP[blkBase]; ok && draw("swip", blkBase) < p.SWIPTrust {
					if c, ok := in.World.Gaz.City(swip.Country, swip.City); ok {
						b.AddPrefix(layerSWIP, blk, geodb.Record{
							Country: c.Country, City: c.Name,
							Coord: coords.coordFor(c), Resolution: geodb.ResolutionCity,
							BlockBits: 24,
						})
					}
				}
			}

			corrRate := p.CorrectionRate
			if p.CorrectionTransitFactor > 0 && in.World.Reg.IsTransit(info.Alloc.ASN) {
				corrRate *= p.CorrectionTransitFactor
			}
			if draw("corr", blkBase) < corrRate {
				if truth, ok := majorityCity(blkBase); ok {
					city := truth
					if draw("corracc", blkBase) >= p.CorrectionCityAcc {
						city = neighborCity(in.World.Gaz, truth, subRNG("wrongcity", blkBase))
					}
					b.AddPrefix(layerCorrection, blk, geodb.Record{
						Country: city.Country, City: city.Name,
						Coord: coords.coordFor(city), Resolution: geodb.ResolutionCity,
						BlockBits: 24,
					})
				}
			}

			if p.UseHints {
				for _, id := range in.World.BlockIfaces(blkBase) {
					name, ok := lookupPTR(id)
					if !ok || rng.Float64() >= p.HintDecodeRate {
						continue
					}
					city, _, decoded := in.Decoder.Decode(name)
					if !decoded {
						continue
					}
					a := in.World.Interfaces[id].Addr
					b.Add(layerHint, ipx.Range{Lo: a, Hi: a}, geodb.Record{
						Country: city.Country, City: city.Name,
						Coord: coords.coordFor(city), Resolution: geodb.ResolutionCity,
						BlockBits: 32,
					})
				}
			}
		}
	}
	return b.Build()
}

// coordTable assigns each (vendor family, city) pair a stable coordinate:
// the gazetteer position plus a small deterministic offset, with rare
// large outliers. Families, not vendors, key the table so MaxMind's two
// products answer with identical coordinates (Figure 1's 68%).
type coordTable struct {
	p Params
	// cache holds each city's coordinate by gazetteer.CityID, zero until
	// first use. A coordinate that happened to be zero would only be
	// computed again, to the same value.
	cache []geo.Coordinate
}

func newCoordTable(p Params) *coordTable {
	return &coordTable{p: p, cache: make([]geo.Coordinate, gazetteer.NumCities()+1)}
}

func (t *coordTable) coordFor(c gazetteer.City) geo.Coordinate {
	if v := t.cache[c.ID]; !v.IsZero() {
		return v
	}
	ccCity := []byte(c.Country + "/" + c.Name)
	h := fnv.New64a()
	h.Write([]byte(t.p.CoordFamily))
	h.Write([]byte{0})
	h.Write(ccCity)
	rng := newKeyedRand(int64(h.Sum64()))

	dist := rng.Float64() * t.p.CityCoordJitterKm
	if rng.Float64() < t.p.CityCoordOutlierProb {
		dist = 40 + rng.Float64()*t.p.CityCoordOutlierKm
	}
	v := c.Coord.Offset(dist, rng.Float64()*360)

	// Product-specific staleness: salted by the product name, not the
	// family, so a stale free product drifts from its paid sibling.
	if t.p.CoordStaleProb > 0 {
		hs := fnv.New64a()
		hs.Write([]byte(t.p.Name))
		hs.Write([]byte{2})
		hs.Write(ccCity)
		srng := newKeyedRand(int64(hs.Sum64()))
		if srng.Float64() < t.p.CoordStaleProb {
			v = v.Offset(6+srng.Float64()*22, srng.Float64()*360)
		}
	}
	t.cache[c.ID] = v
	return v
}
