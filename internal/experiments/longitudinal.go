package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"routergeo/internal/core"
	"routergeo/internal/geodb"
	"routergeo/internal/geodb/snapshot"
	"routergeo/internal/obs"
	"routergeo/internal/par"
	"routergeo/internal/stats"
)

// targetsAt re-grounds the evaluation targets at a churn horizon: an
// interface that moved by then is scored against its new location, so
// the drift the sweep reports is the databases' staleness, not the
// world's. Month zero returns the shared target slice untouched.
func targetsAt(env *Env, months float64) []core.Target {
	if months == 0 {
		return env.Targets
	}
	out := make([]core.Target, len(env.Targets))
	copy(out, env.Targets)
	for i := range out {
		id, ok := env.W.IfaceByAddr(out[i].Addr)
		if !ok || !env.Evo.Moved(id, months) {
			continue
		}
		out[i].Truth = env.Evo.CoordAt(id, months)
		out[i].TruthVec = out[i].Truth.Vec()
		out[i].Country = env.Evo.CityAt(id, months).Country
	}
	return out
}

// epochReport is one epoch's fully rendered block, buffered so the
// sweep can emit blocks in epoch order — the output stream is
// byte-identical whether epochs run serially or concurrently.
type epochReport struct {
	rows bytes.Buffer
	err  error
}

// CheckLongitudinal rejects the arguments Longitudinal cannot sweep, so
// a caller can check them before it builds an Env.
func CheckLongitudinal(epochs int, intervalMonths float64) error {
	if epochs < 1 || intervalMonths <= 0 {
		return fmt.Errorf("experiments: longitudinal sweep needs epochs >= 1 and a positive interval, got %d and %v", epochs, intervalMonths)
	}
	return nil
}

// Longitudinal runs the drift sweep: it rebuilds the four vendor
// databases at each churn horizon (epoch k is k·intervalMonths months of
// evolution on the environment's shared timeline) and scores every
// epoch's databases against ground truth re-grounded at the same
// horizon. Per epoch and database it reports coverage, accuracy and the
// median city error, plus the address-weighted share of the epoch-0
// range set that has moved (the snapshot diff engine's view of the same
// churn); per epoch it reports the all-database country-agreement
// consistency over the Ark address list.
//
// Epochs are independent given the immutable Env, so they run on the
// measurement engine with buffered output, emitted in epoch order —
// byte-identical at any worker count, like every other sweep.
func Longitudinal(ctx context.Context, w io.Writer, env *Env, epochs int, intervalMonths float64) error {
	if err := CheckLongitudinal(epochs, intervalMonths); err != nil {
		return err
	}
	ctx, sp := obs.Start(ctx, "longitudinal.sweep")
	defer sp.End()
	sp.SetItems(int64(epochs))

	fmt.Fprintf(w, "longitudinal drift sweep: %d epochs, %.1f months apart (world seed %d, evolution seed %d)\n",
		epochs, intervalMonths, env.Cfg.World.Seed, env.Cfg.EvolutionSeed)
	fmt.Fprintf(w, "%-5s %-7s %-18s %9s %9s %9s %9s %7s %7s\n",
		"epoch", "months", "db", "ctry-cov", "ctry-acc", "city-cov", "city-acc", "med-km", "moved")

	runEpoch := func(ctx context.Context, k int, out *bytes.Buffer) error {
		ctx, esp := obs.Start(ctx, fmt.Sprintf("longitudinal.epoch_%d", k))
		defer esp.End()
		months := float64(k) * intervalMonths

		dbs := env.DBs
		if k > 0 {
			var err error
			dbs, err = env.BuildDBsAt(ctx, months)
			if err != nil {
				return err
			}
		}
		targets := targetsAt(env, months)
		esp.SetItems(int64(len(targets)))

		providers := make([]geodb.Provider, len(dbs))
		for j, db := range dbs {
			providers[j] = db
		}
		for j, db := range dbs {
			acc := core.MeasureAccuracy(ctx, db, targets)
			med := 0.0
			if acc.ErrorCDF != nil && acc.ErrorCDF.N() > 0 {
				med = acc.ErrorCDF.Quantile(0.5)
			}
			// The diff engine's view of the same churn: how much of the
			// epoch-0 range set (by address weight) answers differently now.
			moved := "-"
			if k > 0 {
				d := snapshot.Compare(env.DBs[j], db)
				if denom := d.MovedAddrs + d.UnchangedAddrs + d.RemovedAddrs; denom > 0 {
					moved = stats.Pct(float64(d.MovedAddrs) / float64(denom))
				}
			}
			fmt.Fprintf(out, "%-5d %-7.1f %-18s %9s %9s %9s %9s %7.0f %7s\n",
				k, months, db.Name(),
				stats.Pct(acc.CountryCoverage()), stats.Pct(acc.CountryAccuracy()),
				stats.Pct(acc.CityCoverage()), stats.Pct(acc.CityAccuracy()),
				med, moved)
		}
		agree, total := core.CountryAgreementAll(ctx, providers, env.ArkAddrs)
		fmt.Fprintf(out, "%-5d %-7.1f %-18s all-db country agreement %s (%d of %d)\n",
			k, months, "(consistency)", stats.Pct(stats.Fraction(agree, total)), agree, total)
		return nil
	}

	reports := make([]epochReport, epochs)
	par.Each(epochs, func(k int) {
		reports[k].err = runEpoch(ctx, k, &reports[k].rows)
	})
	for k := range reports {
		if reports[k].err != nil {
			return fmt.Errorf("epoch %d: %w", k, reports[k].err)
		}
		if _, err := w.Write(reports[k].rows.Bytes()); err != nil {
			return err
		}
	}
	return nil
}
