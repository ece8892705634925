package experiments

import (
	"context"
	"fmt"
	"io"

	"routergeo/internal/core"
	"routergeo/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "sec4",
		Title: "§4: methodology checks — database city coordinates vs gazetteer, and across databases",
		Run:   runSec4,
	})
	register(Experiment{
		ID:    "sec51",
		Title: "§5.1: coverage and country-level consistency over the Ark-topo-router set",
		Run:   runSec51,
	})
	register(Experiment{
		ID:    "fig1",
		Title: "Figure 1: pairwise city-level distance CDFs over the Ark-topo-router set",
		Run:   runFig1,
	})
}

func runSec4(ctx context.Context, w io.Writer, env *Env) error {
	fmt.Fprintf(w, "Database city coordinates vs gazetteer (paper: within 40 km >99%% of the time):\n")
	for _, db := range env.DBs {
		chk := core.ValidateCityCoords(db, env.W.Gaz)
		fmt.Fprintf(w, "  %-18s %4d cities, within 40 km %s, unmatched %d\n",
			db.Name(), chk.Cities,
			stats.Pct(stats.Fraction(chk.Within40Km, chk.Cities-chk.Unmatched)), chk.Unmatched)
	}
	fmt.Fprintf(w, "\nSame city across database pairs (paper: within 40 km >99%%):\n")
	for i := 0; i < len(env.DBs); i++ {
		for j := i + 1; j < len(env.DBs); j++ {
			within, common := core.CrossDBCityCoords(env.DBs[i], env.DBs[j])
			fmt.Fprintf(w, "  %-18s vs %-18s: %4d common cities, within 40 km %s\n",
				env.DBs[i].Name(), env.DBs[j].Name(), common,
				stats.Pct(stats.Fraction(within, common)))
		}
	}
	return nil
}

func runSec51(ctx context.Context, w io.Writer, env *Env) error {
	fmt.Fprintf(w, "Ark-topo-router dataset: %d interface addresses (paper: 1,638K)\n\n", len(env.ArkAddrs))
	fmt.Fprintf(w, "Coverage (paper: IP2Loc/NetAcuity ≈100%%/≈100%%; MaxMind-GeoLite 99.3%%/43%%; MaxMind-Paid 99.3%%/61.6%%):\n")
	for _, db := range env.DBs {
		c := core.MeasureCoverage(ctx, db, env.ArkAddrs)
		fmt.Fprintf(w, "  %-18s country %s  city %s\n", db.Name(),
			stats.Pct(c.CountryPct()), stats.Pct(c.CityPct()))
	}

	fmt.Fprintf(w, "\nPairwise country-level agreement (paper: MaxMind pair 99.6%%, others 97.0–97.6%%):\n")
	for i := 0; i < len(env.DBs); i++ {
		for j := i + 1; j < len(env.DBs); j++ {
			agree, both := core.CountryAgreement(ctx, env.DBs[i], env.DBs[j], env.ArkAddrs)
			fmt.Fprintf(w, "  %-18s vs %-18s: %s of %d\n",
				env.DBs[i].Name(), env.DBs[j].Name(),
				stats.Pct(stats.Fraction(agree, both)), both)
		}
	}
	all, total := core.CountryAgreementAll(ctx, env.Providers(), env.ArkAddrs)
	fmt.Fprintf(w, "All four databases agree: %s of %d addresses (paper: 95.8%%)\n",
		stats.Pct(stats.Fraction(all, total)), total)
	return nil
}

// fig1Pairs are the database pairs Figure 1 compares, in print order;
// the printed figure and its -plotdir series both read them.
var fig1Pairs = [][2]string{
	{"MaxMind-GeoLite", "MaxMind-Paid"},
	{"IP2Location-Lite", "NetAcuity"},
	{"MaxMind-Paid", "NetAcuity"},
	{"IP2Location-Lite", "MaxMind-Paid"},
}

func runFig1(ctx context.Context, w io.Writer, env *Env) error {
	subset := core.CityAnsweredInAll(ctx, env.Providers(), env.ArkAddrs)
	fmt.Fprintf(w, "Addresses with city answers in all four databases: %d (paper: ~692K of 1.64M)\n\n", len(subset))

	for _, pair := range fig1Pairs {
		p := core.MeasurePairwiseCity(ctx, env.DB(pair[0]), env.DB(pair[1]), subset)
		fmt.Fprintf(w, "%s vs %s (n=%d):\n", pair[0], pair[1], p.Both)
		fmt.Fprintf(w, "  identical coordinates: %d (%s)   >40 km apart: %d (%s)\n",
			p.Identical, stats.Pct(stats.Fraction(p.Identical, p.Both)),
			p.Over40Km, stats.Pct(p.DisagreeOver40Pct()))
		if p.CDF.N() > 0 {
			fmt.Fprintf(w, "  distance CDF (identical pairs excluded): %s\n", p.CDF.Render(cdfPoints))
		}
	}
	fmt.Fprintf(w, "\nPaper's headline: MaxMind pair 68%% identical, 11.4%% >40 km; cross-vendor pairs ≥29%% >40 km.\n")
	return nil
}
