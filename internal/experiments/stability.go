package experiments

import (
	"context"
	"fmt"
	"io"

	"routergeo/internal/core"
	"routergeo/internal/geo"
	"routergeo/internal/groundtruth"
	"routergeo/internal/obs"
	"routergeo/internal/stats"
)

// StabilityReport rebuilds the whole environment under each world seed
// and prints the headline metrics side by side — the evidence behind the
// claim that the reproduction's findings are properties of the modelled
// mechanisms, not of one lucky world. Each row is a full pipeline run
// in which only base's world seed changes: the Ark sweep, the PTR zone,
// the Atlas fleets, the feed, the vendors and the churn timeline keep
// base's seeds.
func StabilityReport(ctx context.Context, w io.Writer, base Config, seeds []int64) error {
	ctx, sp := obs.Start(ctx, "stability.report")
	defer sp.End()
	sp.SetItems(int64(len(seeds)))
	fmt.Fprintf(w, "%-6s %6s %8s %8s %9s %9s %9s %9s %8s %9s\n",
		"seed", "GT", "NetA", "reg-fed", "NetA", "IP2L", "MM-P", "MM-P", "ARIN", "NetA-DNS")
	fmt.Fprintf(w, "%-6s %6s %8s %8s %9s %9s %9s %9s %8s %9s\n",
		"", "size", "country", "country", "city", "city", "city", "citycov", "wrong", "advant.")
	for _, seed := range seeds {
		cfg := base
		cfg.World.Seed = seed
		env, err := NewEnv(ctx, cfg)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}

		neta := core.MeasureAccuracy(ctx, env.DB("NetAcuity"), env.Targets)
		ip2 := core.MeasureAccuracy(ctx, env.DB("IP2Location-Lite"), env.Targets)
		mmp := core.MeasureAccuracy(ctx, env.DB("MaxMind-Paid"), env.Targets)
		mmg := core.MeasureAccuracy(ctx, env.DB("MaxMind-GeoLite"), env.Targets)
		regFed := (ip2.CountryAccuracy() + mmp.CountryAccuracy() + mmg.CountryAccuracy()) / 3

		// ARIN city wrongness for MaxMind-Paid (the §5.2.3 signal).
		arin := core.AccuracyByRIR(ctx, env.DB("MaxMind-Paid"), env.Targets)[geo.ARIN]

		// NetAcuity's DNS-over-RTT advantage (the §5.2.4 signal).
		byM := core.AccuracyByMethod(ctx, env.DB("NetAcuity"), env.Targets)
		adv := byM[groundtruth.DNS].CityAccuracy() - byM[groundtruth.RTT].CityAccuracy()

		fmt.Fprintf(w, "%-6d %6d %8s %8s %9s %9s %9s %9s %8s %+8.1f\n",
			seed, env.GT.Len(),
			stats.Pct(neta.CountryAccuracy()), stats.Pct(regFed),
			stats.Pct(neta.CityAccuracy()), stats.Pct(ip2.CityAccuracy()),
			stats.Pct(mmp.CityAccuracy()), stats.Pct(mmp.CityCoverage()),
			stats.Pct(1-arin.CityAccuracy()), 100*adv)
	}
	fmt.Fprintf(w, "\ninvariants to check by eye: NetA country leads reg-fed by >10 points; IP2L city\n")
	fmt.Fprintf(w, "is worst; MM-P city coverage is partial; ARIN city wrongness is high; the\n")
	fmt.Fprintf(w, "NetAcuity DNS advantage stays positive. Paper anchors: 89.4%% vs ~78%%; 41.3%%\n")
	fmt.Fprintf(w, "coverage; 58.2%% ARIN wrong; +4.1-point DNS advantage.\n")
	return nil
}
