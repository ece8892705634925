package experiments

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"routergeo/internal/core"
	"routergeo/internal/geo"
	"routergeo/internal/obs"
)

// WritePlotData exports the raw series behind every figure as
// tab-separated files, ready for gnuplot/matplotlib, so the paper's plots
// can be regenerated graphically rather than as textual CDFs:
//
//	fig1_<A>_vs_<B>.tsv      distance_km  cdf        (+ header comment with identical-share)
//	fig2_<db>.tsv            error_km     cdf
//	fig3.tsv                 rir  db  correct  incorrect
//	fig4.tsv                 cc   n   acc per database
//	fig5_<db>_<rir>.tsv      error_km     cdf
func WritePlotData(ctx context.Context, dir string, env *Env) error {
	ctx, sp := obs.Start(ctx, "plot.write")
	defer sp.End()
	sp.SetAttr("dir", dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	// Figure 1.
	subset := core.CityAnsweredInAll(ctx, env.Providers(), env.ArkAddrs)
	for _, pair := range fig1Pairs {
		p := core.MeasurePairwiseCity(ctx, env.DB(pair[0]), env.DB(pair[1]), subset)
		name := fmt.Sprintf("fig1_%s_vs_%s.tsv", slug(pair[0]), slug(pair[1]))
		header := fmt.Sprintf("# pairwise distance CDF; n=%d compared, %d identical pairs excluded",
			p.Both, p.Identical)
		if err := writeCDF(filepath.Join(dir, name), header, p.CDF.Points()); err != nil {
			return err
		}
	}

	// Figure 2.
	for _, db := range env.DBs {
		a := core.MeasureAccuracy(ctx, db, env.Targets)
		name := fmt.Sprintf("fig2_%s.tsv", slug(db.Name()))
		header := fmt.Sprintf("# geolocation error CDF vs ground truth; n=%d city answers", a.CityAnswered)
		if err := writeCDF(filepath.Join(dir, name), header, a.ErrorCDF.Points()); err != nil {
			return err
		}
	}

	// Figure 3.
	f3, err := os.Create(filepath.Join(dir, "fig3.tsv"))
	if err != nil {
		return err
	}
	w3 := bufio.NewWriter(f3)
	fmt.Fprintln(w3, "# country-level accuracy by RIR\nrir\tdb\tcorrect\tincorrect")
	for _, db := range env.DBs {
		byRIR := core.AccuracyByRIR(ctx, db, env.Targets)
		for _, r := range geo.RIRs {
			a := byRIR[r]
			fmt.Fprintf(w3, "%s\t%s\t%d\t%d\n", r, db.Name(), a.CountryCorrect, a.CountryAnswered-a.CountryCorrect)
		}
	}
	if err := w3.Flush(); err != nil {
		return err
	}
	if err := f3.Close(); err != nil {
		return err
	}

	// Figure 4.
	f4, err := os.Create(filepath.Join(dir, "fig4.tsv"))
	if err != nil {
		return err
	}
	w4 := bufio.NewWriter(f4)
	fmt.Fprint(w4, "# country-level accuracy, top-20 ground-truth countries\ncc\tn")
	for _, db := range env.DBs {
		fmt.Fprintf(w4, "\t%s", slug(db.Name()))
	}
	fmt.Fprintln(w4)
	counts := map[string]int{}
	for _, t := range env.Targets {
		counts[t.Country]++
	}
	perDB := map[string]map[string]core.Accuracy{}
	for _, db := range env.DBs {
		perDB[db.Name()] = core.AccuracyByCountry(ctx, db, env.Targets)
	}
	for _, cc := range core.TopCountries(env.Targets, 20) {
		fmt.Fprintf(w4, "%s\t%d", cc, counts[cc])
		for _, db := range env.DBs {
			fmt.Fprintf(w4, "\t%.4f", perDB[db.Name()][cc].CountryAccuracy())
		}
		fmt.Fprintln(w4)
	}
	if err := w4.Flush(); err != nil {
		return err
	}
	if err := f4.Close(); err != nil {
		return err
	}

	// Figure 5 (both panels, all regions).
	for _, name := range fig5DBs {
		byRIR := core.AccuracyByRIR(ctx, env.DB(name), env.Targets)
		for _, r := range geo.RIRs {
			a := byRIR[r]
			if a.ErrorCDF == nil || a.ErrorCDF.N() == 0 {
				continue
			}
			file := fmt.Sprintf("fig5_%s_%s.tsv", slug(name), strings.ToLower(r.String()))
			header := fmt.Sprintf("# %s city-error CDF in %s; n=%d", name, r, a.CityAnswered)
			if err := writeCDF(filepath.Join(dir, file), header, a.ErrorCDF.Points()); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeCDF emits a (value, cumulative fraction) step series.
func writeCDF(path, header string, points []float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, header)
	fmt.Fprintln(w, "value\tcdf")
	n := float64(len(points))
	for i, x := range points {
		fmt.Fprintf(w, "%.4f\t%.6f\n", x, float64(i+1)/n)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func slug(s string) string {
	return strings.ToLower(strings.ReplaceAll(s, "-", "_"))
}
