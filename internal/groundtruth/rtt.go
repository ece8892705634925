package groundtruth

import (
	"context"
	"sort"

	"routergeo/internal/atlas"
	"routergeo/internal/ipx"
	"routergeo/internal/netsim"
	"routergeo/internal/obs"
	"routergeo/internal/rtt"
)

// RTTConfig parameterizes the RTT-proximity construction (§2.3.2, §3.2).
type RTTConfig struct {
	// ThresholdMs is the proximity bound: 0.5 ms ⇒ hops within 50 km of
	// their probe. The Giotsas comparison dataset uses 1 ms.
	ThresholdMs float64
	// CentroidKm disqualifies probes reported within this distance of any
	// country's default coordinates (the paper uses 5 km).
	CentroidKm float64
	// NearbyMaxKm bounds the reported distance between two probes that are
	// RTT-nearby to the same router: with a T-ms threshold both sit within
	// 100·T km of it, so within 200·T km of each other; the paper uses
	// 100 km for T = 0.5.
	NearbyMaxKm float64
}

// DefaultRTTConfig matches the paper's 0.5 ms pipeline.
func DefaultRTTConfig() RTTConfig {
	return RTTConfig{ThresholdMs: 0.5, CentroidKm: 5, NearbyMaxKm: 100}
}

// RTTStats reports the filtering funnel of §3.2.
type RTTStats struct {
	// CandidateAddrs is the number of distinct addresses with any
	// sub-threshold hop (the paper's 4,960).
	CandidateAddrs int
	// ProbesContributing is the number of distinct probes with
	// sub-threshold hops (1,387).
	ProbesContributing int
	// CentroidProbes and CentroidAddrsRemoved cover the first filter
	// (19 probes, 109 addresses).
	CentroidProbes       int
	CentroidAddrsRemoved int
	// NearbyGroupAddrs is the number of surviving addresses vouched for by
	// two or more probes (495); InconsistentAddrs of them have probes more
	// than NearbyMaxKm apart (12).
	NearbyGroupAddrs  int
	InconsistentAddrs int
	// ProbesInGroups is the number of distinct probes in multi-probe
	// groups (223); DisqualifiedProbes of them fail the consistency vote
	// (5); NearbyAddrsRemoved addresses fall with them (13).
	ProbesInGroups     int
	DisqualifiedProbes int
	NearbyAddrsRemoved int
	// Final is the dataset size after both filters (4,838).
	Final int
	// TwoPlusHopsShare is the fraction of final addresses at least two
	// hops from their probe (the paper's >80% home-router check).
	TwoPlusHopsShare float64
}

// BuildRTT derives the RTT-proximity ground truth from built-in
// measurements, reading each measurement's probe as
// fleet.Probes[ProbeID]. Only the probes' *reported* locations are used;
// the §3.2 filters must catch mislocated probes on their own.
func BuildRTT(ctx context.Context, w *netsim.World, fleet *atlas.Fleet, ms []atlas.Measurement, cfg RTTConfig) (*Dataset, RTTStats) {
	_, sp := obs.Start(ctx, "groundtruth.rtt")
	defer sp.End()
	sp.SetAttr("threshold_ms", cfg.ThresholdMs)
	sp.SetAttr("measurements", len(ms))

	// Step 1: harvest sub-threshold (address, probe) sightings.
	type sighting struct {
		probe int
		rtt   float64
		hops  int
	}
	byAddr := map[ipx.Addr][]sighting{}
	probeSet := map[int]bool{}
	for _, m := range ms {
		for _, h := range m.Result {
			if h.RTTMs > cfg.ThresholdMs {
				continue
			}
			cur := byAddr[h.From]
			found := false
			for i := range cur {
				if cur[i].probe == m.ProbeID {
					if h.RTTMs < cur[i].rtt {
						cur[i].rtt = h.RTTMs
						cur[i].hops = h.Hop
					}
					found = true
					break
				}
			}
			if !found {
				byAddr[h.From] = append(cur, sighting{probe: m.ProbeID, rtt: h.RTTMs, hops: h.Hop})
			}
			probeSet[m.ProbeID] = true
		}
	}

	var stats RTTStats
	stats.CandidateAddrs = len(byAddr)
	stats.ProbesContributing = len(probeSet)

	// Filter 1: probes parked on default country coordinates.
	centroidProbes := map[int]bool{}
	for id := range probeSet {
		if _, near := w.Gaz.NearCountryCentroid(fleet.Probes[id].Reported, cfg.CentroidKm); near {
			centroidProbes[id] = true
		}
	}
	stats.CentroidProbes = len(centroidProbes)
	for a, sightings := range byAddr {
		for _, s := range sightings {
			if centroidProbes[s.probe] {
				delete(byAddr, a)
				stats.CentroidAddrsRemoved++
				break
			}
		}
	}

	// Filter 2: RTT-nearby groups. Two probes near the same router must be
	// near each other; probes that disagree with their groups more than
	// they agree are disqualified, along with their addresses.
	agree := map[int]int{}
	disagree := map[int]int{}
	probesInGroups := map[int]bool{}
	for _, sightings := range byAddr {
		if len(sightings) < 2 {
			continue
		}
		stats.NearbyGroupAddrs++
		inconsistent := false
		for i := 0; i < len(sightings); i++ {
			probesInGroups[sightings[i].probe] = true
			for j := i + 1; j < len(sightings); j++ {
				pi := &fleet.Probes[sightings[i].probe]
				pj := &fleet.Probes[sightings[j].probe]
				if pi.Reported.DistanceKm(pj.Reported) > cfg.NearbyMaxKm {
					inconsistent = true
					disagree[pi.ID]++
					disagree[pj.ID]++
				} else {
					agree[pi.ID]++
					agree[pj.ID]++
				}
			}
		}
		if inconsistent {
			stats.InconsistentAddrs++
		}
	}
	stats.ProbesInGroups = len(probesInGroups)
	disqualified := map[int]bool{}
	for id, bad := range disagree {
		if bad > 0 && bad >= agree[id] {
			disqualified[id] = true
		}
	}
	stats.DisqualifiedProbes = len(disqualified)
	for a, sightings := range byAddr {
		for _, s := range sightings {
			if disqualified[s.probe] {
				delete(byAddr, a)
				stats.NearbyAddrsRemoved++
				break
			}
		}
	}

	// Assemble: each surviving address inherits the location of its
	// lowest-RTT vouching probe.
	var entries []Entry
	twoPlus := 0
	for a, sightings := range byAddr {
		best := sightings[0]
		for _, s := range sightings[1:] {
			if s.rtt < best.rtt {
				best = s
			}
		}
		p := &fleet.Probes[best.probe]
		id, ok := w.IfaceByAddr(a)
		if !ok {
			continue
		}
		entries = append(entries, Entry{
			Iface:   id,
			Addr:    a,
			Coord:   p.Reported,
			Country: p.ReportedCountry,
			Method:  RTT,
			ProbeID: best.probe,
		})
		if best.hops >= 2 {
			twoPlus++
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Addr < entries[j].Addr })
	ds := NewDataset("RTT-proximity", entries)
	stats.Final = ds.Len()
	sp.SetItems(int64(ds.Len()))
	if ds.Len() > 0 {
		stats.TwoPlusHopsShare = float64(twoPlus) / float64(ds.Len())
	}
	return ds, stats
}

// MaxProximityKm returns the distance bound the configured threshold
// implies (50 km for 0.5 ms).
func (c RTTConfig) MaxProximityKm() float64 { return rtt.MaxDistanceKmForRTT(c.ThresholdMs) }
