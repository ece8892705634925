package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"routergeo/internal/geo"
	"routergeo/internal/groundtruth"
	"routergeo/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "table1",
		Title: "Table 1: ground-truth location statistics and regional distribution",
		Run:   runTable1,
	})
	register(Experiment{
		ID:    "sec31",
		Title: "§3.1: DNS-based ground-truth correctness (overlaps, 1ms comparison, hostname churn)",
		Run:   runSec31,
	})
	register(Experiment{
		ID:    "sec32",
		Title: "§3.2: RTT-proximity ground-truth correctness (probe disqualification funnel)",
		Run:   runSec32,
	})
}

func runTable1(ctx context.Context, w io.Writer, env *Env) error {
	fmt.Fprintf(w, "%-14s %7s %10s %8s %6s %6s %8s %7s %8s\n",
		"GroundTruth", "Total", "Countries", "lat/lon",
		"ARIN", "APNIC", "AFRINIC", "LACNIC", "RIPENCC")
	for _, ds := range []*groundtruth.Dataset{env.DNS, env.RTTDS} {
		counts := ds.RIRCounts(env.W)
		fmt.Fprintf(w, "%-14s %7d %10d %8d %6d %6d %8d %7d %8d\n",
			ds.Name, ds.Len(), ds.Countries(), ds.UniqueCoords(),
			counts[geo.ARIN], counts[geo.APNIC], counts[geo.AFRINIC],
			counts[geo.LACNIC], counts[geo.RIPENCC])
	}
	fmt.Fprintf(w, "\nTransit-AS share: DNS-based %s, RTT-proximity %s (paper: 99.9%%, 74.5%%)\n",
		stats.Pct(env.DNS.TransitShare(env.W)), stats.Pct(env.RTTDS.TransitShare(env.W)))
	fmt.Fprintf(w, "Merged ground truth: %d addresses (DNS %d + RTT %d − overlap %d)\n",
		env.GT.Len(), env.DNS.Len(), env.RTTDS.Len(), env.DNS.Len()+env.RTTDS.Len()-env.GT.Len())

	fmt.Fprintf(w, "\nPer-domain DNS ground truth (paper: cogent 6462, ntt 2331, pnap 1437, seabone 1405, peak10 170, digitalwest 29, belwue 23):\n")
	type dc struct {
		d string
		n int
	}
	var domains []dc
	for d, n := range env.DNSStats.PerDomainCounts {
		domains = append(domains, dc{d, n})
	}
	sort.Slice(domains, func(i, j int) bool {
		if domains[i].n != domains[j].n {
			return domains[i].n > domains[j].n
		}
		return domains[i].d < domains[j].d
	})
	for _, x := range domains {
		fmt.Fprintf(w, "  %-18s %5d\n", x.d, x.n)
	}
	fmt.Fprintf(w, "rDNS funnel: %d Ark interfaces -> %d with hostnames (%s) -> %d in GT domains -> %d decoded\n",
		env.DNSStats.ArkInterfaces, env.DNSStats.WithHostname,
		stats.Pct(stats.Fraction(env.DNSStats.WithHostname, env.DNSStats.ArkInterfaces)),
		env.DNSStats.InGTDomains, env.DNSStats.Decoded)
	return nil
}

func runSec31(ctx context.Context, w io.Writer, env *Env) error {
	// DNS vs RTT overlap (paper: 109 common; 105 within 10 km, rest ≤43 km).
	ov := groundtruth.CompareOverlap(env.DNS, env.RTTDS)
	fmt.Fprintf(w, "DNS ∩ RTT-proximity: %d common addresses; within 10 km %d (%s), within 40 km %d (%s), max %.1f km\n",
		ov.Common, ov.Within10Km, stats.Pct(stats.Fraction(ov.Within10Km, ov.Common)),
		ov.Within40Km, stats.Pct(stats.Fraction(ov.Within40Km, ov.Common)), ov.MaxKm)

	// DNS vs the 1ms-RTT-proximity set gathered ~10 months later
	// (paper: 384 common; 92.45% within 100 km, 87.8% within 40 km).
	ov1 := groundtruth.CompareOverlap(env.DNS, env.OneMs)
	fmt.Fprintf(w, "DNS ∩ 1ms-RTT-proximity (+10 months): %d common; within 40 km %s, within 100 km %s\n",
		ov1.Common,
		stats.Pct(stats.Fraction(ov1.Within40Km, ov1.Common)),
		stats.Pct(stats.Fraction(ov1.Within100Km, ov1.Common)))

	// RTT vs 1ms overlap (paper §3.2: 1,661 common; 96.8% within 40 km,
	// 97.4% within 100 km).
	ov2 := groundtruth.CompareOverlap(env.RTTDS, env.OneMs)
	fmt.Fprintf(w, "RTT ∩ 1ms-RTT-proximity: %d common; within 40 km %s, within 100 km %s\n",
		ov2.Common,
		stats.Pct(stats.Fraction(ov2.Within40Km, ov2.Common)),
		stats.Pct(stats.Fraction(ov2.Within100Km, ov2.Common)))

	// Hostname churn at +16 months (paper: 69.1% same name, 24% renamed,
	// 6.9% lost; of renamed 67.7% same location, 30.8% moved, 1.5% no hint;
	// moved = 7.4% of all).
	ch := groundtruth.HostnameChurn(env.W, env.Zone, env.Dec, env.Evo, env.DNS, 16)
	fmt.Fprintf(w, "\nHostname churn over 16 months (n=%d):\n", ch.Total)
	fmt.Fprintf(w, "  same hostname      %6d (%s)   [paper 69.1%%]\n", ch.SameName, stats.Pct(stats.Fraction(ch.SameName, ch.Total)))
	fmt.Fprintf(w, "  different hostname %6d (%s)   [paper 24%%]\n", ch.Renamed, stats.Pct(stats.Fraction(ch.Renamed, ch.Total)))
	fmt.Fprintf(w, "  no rDNS record     %6d (%s)   [paper 6.9%%]\n", ch.Lost, stats.Pct(stats.Fraction(ch.Lost, ch.Total)))
	fmt.Fprintf(w, "  of renamed: same location %d (%s) [67.7%%], moved %d (%s) [30.8%%], no hint %d (%s) [1.5%%]\n",
		ch.RenamedSameLoc, stats.Pct(stats.Fraction(ch.RenamedSameLoc, ch.Renamed)),
		ch.RenamedMovedLoc, stats.Pct(stats.Fraction(ch.RenamedMovedLoc, ch.Renamed)),
		ch.RenamedNoHint, stats.Pct(stats.Fraction(ch.RenamedNoHint, ch.Renamed)))
	fmt.Fprintf(w, "  moved share of all addresses: %s [paper 7.4%%]\n", stats.Pct(ch.MovedShareOfAll))
	return nil
}

func runSec32(ctx context.Context, w io.Writer, env *Env) error {
	s := env.RTTStats
	fmt.Fprintf(w, "RTT-proximity construction funnel (0.5 ms threshold ⇒ %0.f km bound):\n",
		env.Cfg.RTT.MaxProximityKm())
	fmt.Fprintf(w, "  candidate addresses                %6d   [paper 4,960]\n", s.CandidateAddrs)
	fmt.Fprintf(w, "  contributing probes                %6d   [paper 1,387]\n", s.ProbesContributing)
	fmt.Fprintf(w, "  filter 1 — default country coordinates:\n")
	fmt.Fprintf(w, "    probes near a centroid (≤5 km)   %6d   [paper 19]\n", s.CentroidProbes)
	fmt.Fprintf(w, "    addresses removed                %6d   [paper 109]\n", s.CentroidAddrsRemoved)
	fmt.Fprintf(w, "  filter 2 — RTT-nearby consistency (≤%.0f km between probes):\n", env.Cfg.RTT.NearbyMaxKm)
	fmt.Fprintf(w, "    addresses with ≥2 probes         %6d   [paper 495]\n", s.NearbyGroupAddrs)
	fmt.Fprintf(w, "    inconsistent addresses           %6d (%s)  [paper 12, 2.4%%]\n",
		s.InconsistentAddrs, stats.Pct(stats.Fraction(s.InconsistentAddrs, s.NearbyGroupAddrs)))
	fmt.Fprintf(w, "    probes in groups                 %6d   [paper 223]\n", s.ProbesInGroups)
	fmt.Fprintf(w, "    probes disqualified              %6d (%s)  [paper 5, 2.2%%]\n",
		s.DisqualifiedProbes, stats.Pct(stats.Fraction(s.DisqualifiedProbes, s.ProbesInGroups)))
	fmt.Fprintf(w, "    addresses removed                %6d   [paper 13]\n", s.NearbyAddrsRemoved)
	fmt.Fprintf(w, "  final dataset                      %6d   [paper 4,838]\n", s.Final)
	fmt.Fprintf(w, "  ≥2 hops from probe                 %s   [paper >80%%]\n", stats.Pct(s.TwoPlusHopsShare))

	// Filter effectiveness against internal truth: how many genuinely
	// mislocated probes slipped through (the paper cannot measure this;
	// the simulator can, which is the point of having exact truth).
	var leaked int
	for _, e := range env.RTTDS.Entries {
		if env.Fleet.Probes[e.ProbeID].Mislocated {
			leaked++
		}
	}
	fmt.Fprintf(w, "  residual entries vouched by mislocated probes: %d of %d (%s)\n",
		leaked, env.RTTDS.Len(), stats.Pct(stats.Fraction(leaked, env.RTTDS.Len())))
	return nil
}
