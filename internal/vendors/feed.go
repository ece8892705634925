// Package vendors builds the four simulated geolocation databases the
// paper evaluates. Each builder consumes the same registration-data feed
// (the common upstream source the paper suspects behind the databases'
// correlated errors, §5.1/§5.2.2) plus vendor-specific evidence:
// measurement-derived block corrections, SWIP-style per-block
// registration cities, and — for NetAcuity only — DNS hostname hints.
//
// The builders never read interface truth directly; everything flows
// through the feeds, so vendor accuracy is an *outcome* of the modelled
// pipelines, not an input parameter.
package vendors

import (
	"math/rand"

	"routergeo/internal/gazetteer"
	"routergeo/internal/geo"
	"routergeo/internal/ipx"
	"routergeo/internal/netsim"
	"routergeo/internal/registry"
)

// SWIPRecord is a per-/24 reassignment entry in the registration feed:
// the city the block's holder filed for it. Operators frequently register
// infrastructure blocks at headquarters rather than at the deployment
// site, which is what poisons block-level city records (§5.2.3).
type SWIPRecord struct {
	Country string
	City    string
}

// Feed is the registration-data input shared by all vendors.
type Feed struct {
	// Allocations in address order, with the registering org resolved.
	Allocations []AllocationInfo
	// SWIP maps /24 base addresses to reassignment entries.
	SWIP map[ipx.Addr]SWIPRecord
	// BlocksOf parallels Allocations: BlocksOf[i] lists, in address
	// order, the routed /24 base addresses inside Allocations[i].
	BlocksOf [][]ipx.Addr
}

// AllocationInfo pairs a registry allocation with its org record.
type AllocationInfo struct {
	Alloc registry.Allocation
	Org   registry.Org
}

// FeedConfig seeds feed construction.
type FeedConfig struct {
	Seed int64
}

// DefaultFeedConfig returns the seed the experiments use.
func DefaultFeedConfig() FeedConfig {
	return FeedConfig{Seed: 1}
}

// swipPresence is the probability a routed /24 has a SWIP entry, keyed by
// the allocation's RIR. ARIN's SWIP culture makes per-block entries far
// more common there. It and swipAtHQ mirror the registration-data
// landscape the paper's ARIN findings imply.
var swipPresence = map[geo.RIR]float64{
	geo.ARIN:    0.85,
	geo.RIPENCC: 0.25,
	geo.APNIC:   0.25,
	geo.LACNIC:  0.30,
	geo.AFRINIC: 0.30,
}

// swipAtHQ is the probability a SWIP entry names the org's HQ city
// rather than the block's true deployment city.
const swipAtHQ float64 = 0.72

// BuildFeed derives the registration feed from the world's registry.
func BuildFeed(w *netsim.World, cfg FeedConfig) *Feed {
	rng := rand.New(rand.NewSource(cfg.Seed))
	allocs := w.Reg.Allocations()
	f := &Feed{
		Allocations: make([]AllocationInfo, len(allocs)),
		SWIP:        make(map[ipx.Addr]SWIPRecord),
		BlocksOf:    make([][]ipx.Addr, len(allocs)),
	}
	for i, a := range allocs {
		org, _ := w.Reg.Org(a.Org)
		f.Allocations[i] = AllocationInfo{Alloc: a, Org: org}
	}

	// Group routed /24s under allocations. Both lists ascend and the
	// allocations are disjoint, so one cursor finds each block's
	// allocation.
	ai := 0
	for _, blk := range w.RoutedSlash24s() {
		for ai < len(allocs) && allocs[ai].Prefix.Last() < blk.Base {
			ai++
		}
		if ai == len(allocs) || !allocs[ai].Prefix.Contains(blk.Base) {
			continue
		}
		f.BlocksOf[ai] = append(f.BlocksOf[ai], blk.Base)

		info := f.Allocations[ai]
		if rng.Float64() >= swipPresence[info.Alloc.RIR] {
			continue
		}
		rec := SWIPRecord{Country: info.Org.HQCountry, City: info.Org.HQCity}
		if rng.Float64() >= swipAtHQ {
			if city, ok := w.BlockMajorityCity(blk.Base); ok {
				rec = SWIPRecord{Country: city.Country, City: city.Name}
			}
		}
		f.SWIP[blk.Base] = rec
	}
	return f
}

// neighborCity returns a plausible wrong answer for a measurement-derived
// correction: half the time the nearest other city (metro confusion),
// otherwise a random city in the same country.
func neighborCity(g *gazetteer.Gazetteer, truth gazetteer.City, rng *rand.Rand) gazetteer.City {
	if rng.Float64() < 0.5 {
		// Nearest other city: probe just outside the true city.
		probe := truth.Coord.Offset(45, rng.Float64()*360)
		c, _ := g.Nearest(probe)
		if c.ID != truth.ID {
			return c
		}
	}
	for tries := 0; tries < 8; tries++ {
		c := g.SampleCity(rng, truth.Country)
		if c.ID != truth.ID {
			return c
		}
	}
	return g.SampleCity(rng, "")
}
