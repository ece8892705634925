package experiments

import (
	"context"
	"fmt"
	"io"

	"routergeo/internal/core"
	"routergeo/internal/geo"
	"routergeo/internal/geodb"
	"routergeo/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "sec521",
		Title: "§5.2.1: coverage and country-level accuracy over the ground truth",
		Run:   runSec521,
	})
	register(Experiment{
		ID:    "fig2",
		Title: "Figure 2: geolocation-error CDFs vs ground truth",
		Run:   runFig2,
	})
	register(Experiment{
		ID:    "fig3",
		Title: "Figure 3: country-level accuracy by RIR",
		Run:   runFig3,
	})
	register(Experiment{
		ID:    "fig4",
		Title: "Figure 4: country-level accuracy for the top-20 ground-truth countries",
		Run:   runFig4,
	})
	register(Experiment{
		ID:    "fig5",
		Title: "Figure 5: city-level error CDFs by RIR (MaxMind-Paid and NetAcuity)",
		Run:   runFig5,
	})
}

func runSec521(ctx context.Context, w io.Writer, env *Env) error {
	fmt.Fprintf(w, "Ground truth: %d addresses\n\n", len(env.Targets))
	fmt.Fprintf(w, "%-18s %16s %16s %18s %15s\n",
		"Database", "country coverage", "city coverage", "country accuracy", "city accuracy")
	for _, db := range env.DBs {
		a := core.MeasureAccuracy(ctx, db, env.Targets)
		fmt.Fprintf(w, "%-18s %16s %16s %18s %15s\n", db.Name(),
			stats.Pct(a.CountryCoverage()), stats.Pct(a.CityCoverage()),
			stats.Pct(a.CountryAccuracy()), stats.Pct(a.CityAccuracy()))
	}
	fmt.Fprintf(w, "\nPaper: NetAcuity country accuracy 89.4%%, others 77.5–78.6%%; MaxMind city coverage 30.4%%/41.3%%.\n")
	return nil
}

func runFig2(ctx context.Context, w io.Writer, env *Env) error {
	fmt.Fprintf(w, "Geolocation error vs ground truth for addresses with city answers (40 km city range):\n")
	for _, db := range env.DBs {
		a := core.MeasureAccuracy(ctx, db, env.Targets)
		fmt.Fprintf(w, "%-18s (n=%5d): %s\n", db.Name(), a.CityAnswered, a.ErrorCDF.Render(cdfPoints))
	}
	fmt.Fprintf(w, "\nPaper's shape: NetAcuity best, IP2Location-Lite worst but with full coverage;\n")
	fmt.Fprintf(w, "CDF n per database in the paper: IP2Loc 16538, MM-Paid 6848, MM-GeoLite 5037, NetAcuity 16519.\n")
	return nil
}

func runFig3(ctx context.Context, w io.Writer, env *Env) error {
	fmt.Fprintf(w, "%-18s", "Database")
	for _, r := range geo.RIRs {
		fmt.Fprintf(w, " %14s", r.String())
	}
	fmt.Fprintln(w)
	for _, db := range env.DBs {
		byRIR := core.AccuracyByRIR(ctx, db, env.Targets)
		fmt.Fprintf(w, "%-18s", db.Name())
		for _, r := range geo.RIRs {
			a := byRIR[r]
			incorrect := a.CountryAnswered - a.CountryCorrect
			fmt.Fprintf(w, " %5d/%-4d %4s", a.CountryCorrect, incorrect,
				stats.Pct(1-a.CountryAccuracy()))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "(cells: correct/incorrect and %% incorrect; paper's %% incorrect rows:\n")
	fmt.Fprintf(w, " AFRINIC 6.2/6.1/6.1/6.1, APNIC 19.8/7.3/7.2/6.4, ARIN 23.0/21.1/19.6/11.4,\n")
	fmt.Fprintf(w, " LACNIC 0/0/0/0, RIPENCC 22.6/29.5/29.1/10.0 for IP2Loc/MM-GeoLite/MM-Paid/NetAcuity)\n")
	return nil
}

func runFig4(ctx context.Context, w io.Writer, env *Env) error {
	top := core.TopCountries(env.Targets, 20)
	perDB := map[string]map[string]core.Accuracy{}
	for _, db := range env.DBs {
		perDB[db.Name()] = core.AccuracyByCountry(ctx, db, env.Targets)
	}
	counts := map[string]int{}
	for _, t := range env.Targets {
		counts[t.Country]++
	}

	fmt.Fprintf(w, "%-4s %6s", "CC", "n")
	for _, db := range env.DBs {
		fmt.Fprintf(w, " %18s", db.Name())
	}
	fmt.Fprintln(w)
	for _, cc := range top {
		fmt.Fprintf(w, "%-4s %6d", cc, counts[cc])
		for _, db := range env.DBs {
			a := perDB[db.Name()][cc]
			fmt.Fprintf(w, " %18s", stats.Pct(a.CountryAccuracy()))
		}
		fmt.Fprintln(w)
	}

	// The shared-wrong-answer analysis: the three registry-fed databases
	// agree on the same wrong country for most of their mistakes.
	regFed := []string{"IP2Location-Lite", "MaxMind-GeoLite", "MaxMind-Paid"}
	dbs := make([]geodb.Provider, 0, len(regFed))
	for _, name := range regFed {
		dbs = append(dbs, env.DB(name))
	}
	shared, wrong := core.SharedIncorrect(ctx, dbs, env.Targets)
	fmt.Fprintf(w, "\nShared incorrect country answers among %v: %d\n", regFed, shared)
	for i, name := range regFed {
		fmt.Fprintf(w, "  %-18s wrong on %5d, shared share %s (paper: 61–67%%)\n",
			name, wrong[i], stats.Pct(stats.Fraction(shared, wrong[i])))
	}
	return nil
}

// fig5DBs are the databases Figure 5's two panels break down by
// region; the printed figure and its -plotdir series both read them.
var fig5DBs = []string{"MaxMind-Paid", "NetAcuity"}

func runFig5(ctx context.Context, w io.Writer, env *Env) error {
	for _, name := range fig5DBs {
		db := env.DB(name)
		overall := core.MeasureAccuracy(ctx, db, env.Targets)
		fmt.Fprintf(w, "%s — city answers for %s of ground truth (paper: 41.29%% / 99.6%%):\n",
			name, stats.Pct(overall.CityCoverage()))
		byRIR := core.AccuracyByRIR(ctx, db, env.Targets)
		for _, r := range geo.RIRs {
			a := byRIR[r]
			if a.CityAnswered == 0 {
				fmt.Fprintf(w, "  %-8s (n=    0)\n", r.String())
				continue
			}
			fmt.Fprintf(w, "  %-8s (n=%5d): %s\n", r.String(), a.CityAnswered, a.ErrorCDF.Render(cdfPoints))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "Paper's shape: ARIN is the worst region at city level for every database.\n")
	return nil
}
