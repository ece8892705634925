package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"

	"routergeo/internal/obs"
	"routergeo/internal/par"
)

// Experiment is one reproducible artifact of the paper's evaluation.
type Experiment struct {
	// ID is the short handle used on the command line (e.g. "fig2").
	ID string
	// Title names the paper artifact.
	Title string
	// Run prints the artifact's rows/series to w. The context carries the
	// run's trace span, so core measurements nest under the experiment.
	Run func(ctx context.Context, w io.Writer, env *Env) error
}

// RunOne executes a single experiment under its own "exp.<id>" span.
func RunOne(ctx context.Context, e Experiment, w io.Writer, env *Env) error {
	ctx, sp := obs.Start(ctx, "exp."+e.ID)
	defer sp.End()
	return e.Run(ctx, w, env)
}

// registry of experiments, populated by the exp_*.go files; extensions
// holds the beyond-the-paper analyses (CBG comparison, block co-locality,
// ablations, majority vote) kept apart so All() stays exactly the paper's
// 14 artifacts.
var (
	registry   []Experiment
	extensions []Experiment
)

func register(e Experiment)    { registry = append(registry, e) }
func registerExt(e Experiment) { extensions = append(extensions, e) }

// Extensions returns the beyond-the-paper analyses in registration order.
func Extensions() []Experiment {
	out := make([]Experiment, len(extensions))
	copy(out, extensions)
	return out
}

// All returns every experiment in presentation order (Table 1 first, the
// recommendations last).
func All() []Experiment {
	order := map[string]int{
		"table1": 1, "sec31": 2, "sec32": 3, "sec4": 4, "sec51": 5,
		"fig1": 6, "sec521": 7, "fig2": 8, "fig3": 9, "fig4": 10,
		"fig5": 11, "sec523": 12, "sec524": 13, "rec": 14,
	}
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return order[out[i].ID] < order[out[j].ID] })
	return out
}

// ByID fetches one experiment, searching the paper artifacts first and
// the extensions second.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	for _, e := range extensions {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment against env, writing each artifact
// under a banner in presentation order. The experiments are independent
// (each reads the immutable Env and builds its own accumulators), so
// they run on the measurement engine with their output buffered and
// emitted in registry order — the stream is byte-identical at any
// worker count. Output stops at the first failed experiment and its
// error is returned, though later experiments have run by then.
func RunAll(ctx context.Context, w io.Writer, env *Env) error {
	exps := All()
	bufs := make([]bytes.Buffer, len(exps))
	errs := make([]error, len(exps))
	par.Each(len(exps), func(i int) {
		errs[i] = RunOne(ctx, exps[i], &bufs[i], env)
	})
	for i, e := range exps {
		Banner(w, e)
		if _, err := w.Write(bufs[i].Bytes()); err != nil {
			return err
		}
		if errs[i] != nil {
			return fmt.Errorf("%s: %w", e.ID, errs[i])
		}
	}
	return nil
}

// Banner writes the header line that introduces one artifact in a
// run's output stream.
func Banner(w io.Writer, e Experiment) {
	fmt.Fprintf(w, "\n================ %s — %s ================\n", e.ID, e.Title)
}

// cdfPoints are the distance probes (km) the textual CDFs print at,
// spanning the paper's log-scale x-axes.
var cdfPoints = []float64{1, 10, 40, 100, 500, 1000, 5000, 10000}
