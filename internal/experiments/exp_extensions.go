package experiments

// Beyond-the-paper analyses. Each extension either implements something
// the paper names but does not do (block co-locality, §5.2.3's explicit
// future work), compares against the alternative it mentions (delay-based
// geolocation, §1), or stress-tests one of its methodological choices
// (the 0.5 ms threshold, the probe filters, majority voting from prior
// work §7).

import (
	"context"
	"fmt"
	"io"
	"sort"

	"routergeo/internal/cbg"
	"routergeo/internal/core"
	"routergeo/internal/geodb"
	"routergeo/internal/groundtruth"
	"routergeo/internal/ipx"
	"routergeo/internal/stats"
)

func init() {
	registerExt(Experiment{
		ID:    "ext-cbg",
		Title: "Extension: constraint-based (delay) geolocation vs the databases",
		Run:   runExtCBG,
	})
	registerExt(Experiment{
		ID:    "ext-blocks",
		Title: "Extension: /24 block co-locality (the paper's deferred analysis)",
		Run:   runExtBlocks,
	})
	registerExt(Experiment{
		ID:    "ext-ablation",
		Title: "Extension: RTT-proximity threshold and filter ablation",
		Run:   runExtAblation,
	})
	registerExt(Experiment{
		ID:    "ext-majority",
		Title: "Extension: majority-vote evaluation (Geocompare-style) vs real ground truth",
		Run:   runExtMajority,
	})
}

// runExtCBG harvests per-address RTT observations from the Atlas built-in
// measurements, multilaterates each ground-truth address seen by at least
// three probes, and compares the error CDF with the four databases on the
// same address subset.
func runExtCBG(ctx context.Context, w io.Writer, env *Env) error {
	obsByAddr := map[ipx.Addr][]cbg.Observation{}
	for _, m := range env.Measurements {
		pc := env.Fleet.Probes[m.ProbeID].Reported
		for _, h := range m.Result {
			obsByAddr[h.From] = append(obsByAddr[h.From], cbg.Observation{
				From:  pc,
				RTTMs: h.MinRTT(),
			})
		}
	}

	cbgCDF := &stats.ECDF{}
	dbCDFs := map[string]*stats.ECDF{}
	for _, db := range env.DBs {
		dbCDFs[db.Name()] = &stats.ECDF{}
	}
	evaluated, feasible := 0, 0
	for _, t := range env.Targets {
		obs := obsByAddr[t.Addr]
		if len(obs) < 3 {
			continue
		}
		res, ok := cbg.Estimate(obs)
		if !ok {
			continue
		}
		evaluated++
		if res.Feasible {
			feasible++
		}
		cbgCDF.Add(res.Coord.DistanceKm(t.Truth))
		for _, db := range env.DBs {
			if rec, ok := db.Lookup(t.Addr); ok && rec.HasCity() {
				dbCDFs[db.Name()].Add(rec.Coord.DistanceKm(t.Truth))
			}
		}
	}
	if evaluated == 0 {
		fmt.Fprintln(w, "no ground-truth address was observed by >=3 probes; nothing to multilaterate")
		return nil
	}
	fmt.Fprintf(w, "ground-truth addresses with >=3 probe observations: %d (%d feasible systems)\n\n", evaluated, feasible)
	fmt.Fprintf(w, "%-22s %s\n", "CBG (delay-based)", cbgCDF.Render(cdfPoints))
	for _, db := range env.DBs {
		c := dbCDFs[db.Name()]
		if c.N() == 0 {
			continue
		}
		fmt.Fprintf(w, "%-22s %s\n", db.Name()+fmt.Sprintf(" (n=%d)", c.N()), c.Render(cdfPoints))
	}
	fmt.Fprintf(w, "\nwithin the 40 km city range: CBG %s vs NetAcuity %s on this subset\n",
		stats.Pct(cbgCDF.FractionAtOrBelow(40)), stats.Pct(dbCDFs["NetAcuity"].FractionAtOrBelow(40)))
	fmt.Fprintf(w, "(the paper's §1: delay-based geolocation is a viable alternative when probes are near targets)\n")
	return nil
}

// runExtBlocks quantifies /24 co-locality: how many routed blocks span
// multiple cities, how far apart, and how much worse block-level records
// do on spanning blocks.
func runExtBlocks(ctx context.Context, w io.Writer, env *Env) error {
	world := env.W
	spread := &stats.ECDF{}
	single, multi := 0, 0
	for _, p := range world.RoutedSlash24s() {
		cities := world.BlockCities(p.Base)
		if len(cities) <= 1 {
			single++
			continue
		}
		multi++
		max := 0.0
		for i := 0; i < len(cities); i++ {
			for j := i + 1; j < len(cities); j++ {
				if d := cities[i].Coord.DistanceKm(cities[j].Coord); d > max {
					max = d
				}
			}
		}
		spread.Add(max)
	}
	fmt.Fprintf(w, "routed /24 blocks: %d co-located, %d spanning multiple cities (%s)\n",
		single, multi, stats.Pct(stats.Fraction(multi, single+multi)))
	if spread.N() > 0 {
		fmt.Fprintf(w, "spanning blocks' maximum intra-block distance: median %.0f km, p90 %.0f km\n",
			spread.Median(), spread.Quantile(0.9))
	}

	// Does block co-locality predict database error? Split the MaxMind-Paid
	// ground-truth city answers by their block's co-locality.
	db := env.DB("MaxMind-Paid")
	var colocOK, colocN, spanOK, spanN int
	for _, t := range env.Targets {
		rec, ok := db.Lookup(t.Addr)
		if !ok || !rec.HasCity() || !rec.BlockLevel() {
			continue
		}
		within := rec.Coord.WithinKm(t.Truth, core.CityRangeKm)
		if world.BlockCityCount(t.Addr) > 1 {
			spanN++
			if within {
				spanOK++
			}
		} else {
			colocN++
			if within {
				colocOK++
			}
		}
	}
	fmt.Fprintf(w, "\nMaxMind-Paid block-level city answers over ground truth:\n")
	fmt.Fprintf(w, "  co-located blocks:    %s correct of %d\n", stats.Pct(stats.Fraction(colocOK, colocN)), colocN)
	fmt.Fprintf(w, "  city-spanning blocks: %s correct of %d\n", stats.Pct(stats.Fraction(spanOK, spanN)), spanN)
	fmt.Fprintf(w, "(a block-level record cannot be right for every interface of a spanning block — §5.2.3's hypothesis)\n")
	return nil
}

// runExtAblation re-runs the RTT-proximity construction across thresholds
// and with the §3.2 filters disabled, measuring yield and purity against
// the world's exact truth — the sensitivity analysis the paper's fixed
// choices imply.
func runExtAblation(ctx context.Context, w io.Writer, env *Env) error {
	fmt.Fprintf(w, "%-34s %8s %10s %10s\n", "configuration", "yield", "purity", "(bound km)")
	for _, th := range []float64{0.25, 0.5, 1.0, 2.0} {
		cfg := groundtruth.RTTConfig{ThresholdMs: th, CentroidKm: 5, NearbyMaxKm: 2 * th * 200}
		ds, _ := groundtruth.BuildRTT(ctx, env.W, env.Fleet, env.Measurements, cfg)
		fmt.Fprintf(w, "%-34s %8d %10s %10.0f\n",
			fmt.Sprintf("threshold %.2f ms, filters on", th),
			ds.Len(), stats.Pct(purity(env, ds, cfg.MaxProximityKm()+5)), cfg.MaxProximityKm())
	}
	// Filters off: disable both by making them vacuous.
	off := groundtruth.RTTConfig{ThresholdMs: 0.5, CentroidKm: 0, NearbyMaxKm: 1e9}
	ds, _ := groundtruth.BuildRTT(ctx, env.W, env.Fleet, env.Measurements, off)
	fmt.Fprintf(w, "%-34s %8d %10s %10.0f\n", "threshold 0.50 ms, filters OFF",
		ds.Len(), stats.Pct(purity(env, ds, 55)), 50.0)
	fmt.Fprintf(w, "\nyield = dataset size; purity = fraction of entries within the proximity bound of exact truth.\n")
	fmt.Fprintf(w, "Tighter thresholds buy purity with yield; the filters buy purity almost for free (§3.2).\n")
	return nil
}

func purity(env *Env, ds *groundtruth.Dataset, boundKm float64) float64 {
	if ds.Len() == 0 {
		return 0
	}
	ok := 0
	for _, e := range ds.Entries {
		if e.Coord.WithinKm(env.W.CoordOf(e.Iface), boundKm) {
			ok++
		}
	}
	return float64(ok) / float64(ds.Len())
}

// runExtMajority evaluates the databases the way prior work did — against
// a majority vote across databases — and contrasts the resulting ranking
// with the real ground truth, demonstrating the paper's warning that
// agreement does not imply correctness (§5.1, §8).
func runExtMajority(ctx context.Context, w io.Writer, env *Env) error {
	type vote struct {
		name string
		rec  geodb.Record
	}
	majorityCorrect := map[string]int{}
	majorityTotal := map[string]int{}
	truthCorrect := map[string]int{}
	truthTotal := map[string]int{}
	majorityWrong := 0
	votedTargets := 0

	for _, t := range env.Targets {
		var votes []vote
		for _, db := range env.DBs {
			if rec, ok := db.Lookup(t.Addr); ok && rec.HasCity() {
				votes = append(votes, vote{db.Name(), rec})
			}
		}
		if len(votes) < 3 {
			continue
		}
		votedTargets++
		// Majority location: the vote whose 40 km neighbourhood contains
		// the most votes (ties broken by database order).
		best, bestN := -1, 0
		for i := range votes {
			n := 0
			for j := range votes {
				if votes[i].rec.Coord.WithinKm(votes[j].rec.Coord, core.CityRangeKm) {
					n++
				}
			}
			if n > bestN {
				best, bestN = i, n
			}
		}
		majority := votes[best].rec.Coord
		if !majority.WithinKm(t.Truth, core.CityRangeKm) {
			majorityWrong++
		}
		for _, v := range votes {
			majorityTotal[v.name]++
			if v.rec.Coord.WithinKm(majority, core.CityRangeKm) {
				majorityCorrect[v.name]++
			}
			truthTotal[v.name]++
			if v.rec.Coord.WithinKm(t.Truth, core.CityRangeKm) {
				truthCorrect[v.name]++
			}
		}
	}

	fmt.Fprintf(w, "targets with city votes from >=3 databases: %d\n", votedTargets)
	fmt.Fprintf(w, "majority location wrong (>40 km from truth): %s\n\n",
		stats.Pct(stats.Fraction(majorityWrong, votedTargets)))
	fmt.Fprintf(w, "%-18s %18s %18s\n", "database", "acc vs majority", "acc vs truth")
	var names []string
	for n := range majorityTotal {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-18s %18s %18s\n", n,
			stats.Pct(stats.Fraction(majorityCorrect[n], majorityTotal[n])),
			stats.Pct(stats.Fraction(truthCorrect[n], truthTotal[n])))
	}
	fmt.Fprintf(w, "\nA majority-vote evaluation (as in Geocompare and Shavitt et al., §7) rewards the\n")
	fmt.Fprintf(w, "registry-fed databases for agreeing on the same wrong answers; scoring against real\n")
	fmt.Fprintf(w, "ground truth reorders them — the paper's core argument for building ground truth.\n")
	return nil
}
