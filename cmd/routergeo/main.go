// Command routergeo runs the full reproduction of "A Look at Router
// Geolocation in Public and Commercial Databases" (IMC 2017): it builds
// the synthetic world, collects the Ark-style topology sweep, deploys the
// Atlas-style probe fleet, constructs both ground-truth datasets, builds
// the four vendor databases, and reproduces every table and figure of the
// paper's evaluation.
//
// Usage:
//
//	routergeo [-seed N] [-ases N] [-list] [-run id[,id...]] [-dbdir DIR]
//
// With no flags it runs every experiment. -list names them; -run selects
// a subset; -dbdir additionally exports the four vendor databases as
// <name>.rgsnap snapshots, the files cmd/geolookup reads and geoserve
// -snap-dir serves. Every evaluation run writes a JSON run manifest
// (-manifest, default routergeo-run.json) recording the config, the
// stage tree with per-stage timings and item counts, and the headline
// dataset sizes.
//
// -remote URL scores the accuracy sweep through a running geoserve
// instance instead of in-process databases; outage bookkeeping
// (degraded/tainted lookups, breaker opens) is recorded in the
// manifest's taint section. See remoteAccuracy.
//
// -longitudinal runs the drift sweep instead of the paper artifacts:
// the four vendor databases are rebuilt at each churn horizon (-epochs
// steps of -interval-months months on the world's evolution timeline)
// and scored against ground truth re-grounded at the same horizon, so
// the per-epoch table shows how point-in-time accuracy decays as the
// databases go stale. Output is byte-identical between serial and
// parallel runs and across same-seed re-runs.
//
// -stability, -longitudinal and -remote are modes that run instead of
// the paper artifacts; routergeo refuses more than one of them, and the
// flags a mode would ignore, before it builds anything.
//
// -cpuprofile and -memprofile write pprof profiles of the run (CPU over
// the whole run, heap at exit), so `make profile` captures a whole run
// rather than a microbenchmark. Inspect with `go tool pprof`.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"routergeo/internal/core"
	"routergeo/internal/experiments"
	"routergeo/internal/geodb/httpapi"
	"routergeo/internal/geodb/snapshot"
	"routergeo/internal/obs"
	"routergeo/internal/par"
)

func main() {
	var (
		seed      = flag.Int64("seed", 1, "world seed; the Ark sweep, PTR zone, Atlas fleets, feed, vendors and churn timeline keep fixed seeds")
		ases      = flag.Int("ases", 0, "number of ASes in the world (0 = default scale)")
		list      = flag.Bool("list", false, "list experiment IDs and exit")
		run       = flag.String("run", "", "comma-separated experiment IDs to run (default: all paper artifacts)")
		ext       = flag.Bool("ext", false, "also run the extension analyses (or list them with -list)")
		dbdir     = flag.String("dbdir", "", "export the vendor databases to this directory")
		plotdir   = flag.String("plotdir", "", "export figure series as TSV files to this directory")
		stability = flag.Int("stability", 0, "instead of experiments, rebuild the pipeline under N seeds and print headline metrics")
		longit    = flag.Bool("longitudinal", false, "instead of experiments, run the drift sweep: rebuild the vendor databases per epoch and score each against horizon-matched ground truth")
		epochs    = flag.Int("epochs", 3, "epochs in the longitudinal sweep (with -longitudinal)")
		interval  = flag.Float64("interval-months", 4, "months of churn between epochs (with -longitudinal)")
		manifest  = flag.String("manifest", "routergeo-run.json", "write the JSON run manifest here (empty disables)")
		workers   = flag.Int("parallelism", 0, "worker count for the parallel engine: the environment build's four chains (Ark and DNS ground truth, each Atlas campaign and its RTT ground truth, churn and vendor builds), Ark's monitor trees, measurement sweeps, experiments and drift epochs; 1 forces the serial path (0 = GOMAXPROCS)")
		remote    = flag.String("remote", "", "instead of experiments, score the accuracy sweep through a geoserve instance at this base URL")
		remoteFB  = flag.Bool("remote-fallback", true, "with -remote, degrade to the locally built databases when the server cannot answer (false: misses are tainted instead)")
		debugAddr = flag.String("debug-addr", "", "optional debug listener serving pprof, /metrics and the /v2/events stream")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	lf := obs.AddLogFlags(flag.CommandLine)
	flag.Parse()
	par.SetParallelism(*workers)

	if _, err := lf.Setup(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "routergeo:", err)
		os.Exit(2)
	}
	stopProfiles, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "routergeo:", err)
		os.Exit(2)
	}
	defer stopProfiles()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		if *ext {
			for _, e := range experiments.Extensions() {
				fmt.Printf("%-12s %s\n", e.ID, e.Title)
			}
		}
		return
	}

	// Reject bad -run IDs, a second mode, flags the chosen mode would
	// drop and longitudinal arguments before the build, which takes
	// seconds on the larger worlds.
	selected, err := selectExperiments(*run)
	if err == nil {
		on := map[string]bool{
			"stability": *stability > 0, "longitudinal": *longit, "remote": *remote != "",
			"run": *run != "", "ext": *ext, "dbdir": *dbdir != "", "plotdir": *plotdir != "",
		}
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		err = checkModeFlags(on, set)
	}
	if err == nil && *longit {
		err = experiments.CheckLongitudinal(*epochs, *interval)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "routergeo:", err)
		stopProfiles() // os.Exit skips the deferred stop
		os.Exit(1)
	}

	cfg := experiments.DefaultConfig()
	cfg.World.Seed = *seed
	if *ases > 0 {
		cfg.World.ASes = *ases
	}

	rec := obs.NewRun("routergeo")
	rec.SetSeed(*seed)
	if err := rec.SetConfig(cfg); err != nil {
		// Without its config the manifest cannot reproduce the run.
		fmt.Fprintln(os.Stderr, "routergeo:", err)
		stopProfiles() // os.Exit skips the deferred stop
		os.Exit(1)
	}
	if *debugAddr != "" {
		// The sweep's progress ticks, span boundaries and client breaker
		// transitions stream live from this listener's /v2/events.
		obs.ServeDebug(*debugAddr, rec.Registry(), obs.Events(), func(err error) {
			slog.Error("debug listener failed", "error", err)
		})
		slog.Info("debug listener up", "addr", *debugAddr)
	}
	ctx := rec.Context(context.Background())
	writeManifest := func() {
		if *manifest == "" {
			return
		}
		if err := rec.WriteManifest(*manifest); err != nil {
			fmt.Fprintln(os.Stderr, "routergeo:", err)
			return
		}
		fmt.Fprintf(os.Stderr, "wrote run manifest to %s\n", *manifest)
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "routergeo:", err)
		writeManifest()
		stopProfiles() // os.Exit skips the deferred stop
		os.Exit(1)
	}

	if *stability > 0 {
		seeds := make([]int64, *stability)
		for i := range seeds {
			seeds[i] = *seed + int64(i)
		}
		if err := experiments.StabilityReport(ctx, os.Stdout, cfg, seeds); err != nil {
			fail(err)
		}
		writeManifest()
		return
	}

	start := time.Now()
	fmt.Fprintf(os.Stderr, "building environment (world seed %d)...\n", *seed)
	env, err := experiments.NewEnv(ctx, cfg)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "environment ready in %v: %d routers, %d interfaces, %d Ark addresses, %d ground-truth addresses\n",
		time.Since(start).Round(time.Millisecond),
		env.W.NumRouters(), env.W.NumInterfaces(), len(env.ArkAddrs), env.GT.Len())
	rec.SetCount("routers", int64(env.W.NumRouters()))
	rec.SetCount("interfaces", int64(env.W.NumInterfaces()))
	rec.SetCount("ark_addresses", int64(len(env.ArkAddrs)))
	rec.SetCount("ground_truth", int64(env.GT.Len()))
	rec.SetCount("targets", int64(len(env.Targets)))

	if *dbdir != "" {
		meta := snapshot.Meta{BuildEpoch: experiments.SnapshotEpoch(*seed), SourceFormat: "study"}
		paths, err := experiments.WriteSnapshots(*dbdir, env.DBs, meta)
		if err != nil {
			fail(err)
		}
		for i, path := range paths {
			fmt.Fprintf(os.Stderr, "wrote %s (%d ranges)\n", path, env.DBs[i].Len())
		}
	}

	if *plotdir != "" {
		if err := experiments.WritePlotData(ctx, *plotdir, env); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "wrote figure series to %s\n", *plotdir)
	}

	if *longit {
		rec.SetCount("epochs", int64(*epochs))
		if err := experiments.Longitudinal(ctx, os.Stdout, env, *epochs, *interval); err != nil {
			fail(err)
		}
		writeManifest()
		return
	}

	if *remote != "" {
		if err := remoteAccuracy(ctx, rec, env, *remote, *remoteFB); err != nil {
			fail(err)
		}
		writeManifest()
		return
	}

	if selected == nil {
		if err := experiments.RunAll(ctx, os.Stdout, env); err != nil {
			fail(err)
		}
		if *ext {
			for _, e := range experiments.Extensions() {
				experiments.Banner(os.Stdout, e)
				if err := experiments.RunOne(ctx, e, os.Stdout, env); err != nil {
					fail(err)
				}
			}
		}
		writeManifest()
		return
	}
	for _, e := range selected {
		experiments.Banner(os.Stdout, e)
		if err := experiments.RunOne(ctx, e, os.Stdout, env); err != nil {
			fail(err)
		}
	}
	writeManifest()
}

// selectExperiments resolves -run's comma-separated IDs, in order. An
// empty list selects nothing, which means every paper artifact.
func selectExperiments(run string) ([]experiments.Experiment, error) {
	if run == "" {
		return nil, nil
	}
	var out []experiments.Experiment
	for _, id := range strings.Split(run, ",") {
		id = strings.TrimSpace(id)
		e, ok := experiments.ByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (use -list)", id)
		}
		out = append(out, e)
	}
	return out, nil
}

// modes lists the modes that run instead of the paper artifacts, in
// the order main picks them: each mode's flag, the flags it would drop
// without a word, and the flags that apply only with it.
var modes = []struct {
	flag  string
	drops []string
	owns  []string
}{
	{"stability", []string{"run", "ext", "dbdir", "plotdir"}, nil},
	{"longitudinal", []string{"run", "ext"}, []string{"epochs", "interval-months"}},
	{"remote", []string{"run", "ext"}, []string{"remote-fallback"}},
}

// checkModeFlags rejects, by the modes table, a second mode (main would
// run only the first), the flags a chosen mode would drop, and a
// mode's own flags without it. on holds whether a mode flag, or a flag
// a mode drops, asks for something (-stability above 0, a non-empty
// -run); set holds the names of the flags given on the command line
// (flag.Visit), since a mode's own flag cannot tell "-epochs 3" from
// the default. The error names every offending flag.
func checkModeFlags(on, set map[string]bool) error {
	var problems, chosen []string
	for _, m := range modes {
		if on[m.flag] {
			chosen = append(chosen, "-"+m.flag)
		}
	}
	if len(chosen) > 1 {
		problems = append(problems, fmt.Sprintf("%s are separate modes; give one", strings.Join(chosen, " and ")))
	}
	for _, m := range modes {
		if !on[m.flag] {
			for _, f := range m.owns {
				if set[f] {
					problems = append(problems, fmt.Sprintf("-%s applies only with -%s", f, m.flag))
				}
			}
			continue
		}
		var dropped []string
		for _, f := range m.drops {
			if on[f] {
				dropped = append(dropped, "-"+f)
			}
		}
		if len(dropped) > 0 {
			problems = append(problems, fmt.Sprintf("%s cannot be combined with -%s, which runs instead of the experiments", strings.Join(dropped, " and "), m.flag))
		}
	}
	if len(problems) == 0 {
		return nil
	}
	return errors.New(strings.Join(problems, "; "))
}

// remoteAccuracy scores the paper's accuracy sweep (§5.2) against a
// geoserve instance instead of in-process databases — the deployment
// shape the commercial products are actually consumed in. Each database
// is evaluated through a RemoteProvider; with fallback armed the locally
// built copy answers whenever the server cannot, so an outage degrades
// throughput instead of corrupting results. Either way the outage
// bookkeeping — transport errors, degraded lookups, tainted (falsely
// missing) lookups, breaker opens — lands in the run manifest, so a
// sweep that survived trouble says so.
func remoteAccuracy(ctx context.Context, rec *obs.Run, env *experiments.Env, baseURL string, fallback bool) error {
	fmt.Printf("remote accuracy sweep via %s (%d targets)\n", baseURL, len(env.Targets))
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "db\tcountry cov\tcountry acc\tcity cov\tmedian err\tdegraded\ttainted")
	for _, db := range env.DBs {
		c := httpapi.NewClient(baseURL,
			httpapi.WithDatabase(db.Name()),
			httpapi.WithBaseContext(ctx),
			httpapi.WithClientMetrics(rec.Registry()))
		var opts []httpapi.RemoteOption
		if fallback {
			opts = append(opts, httpapi.WithFallback(db))
		}
		p, err := httpapi.NewRemoteProvider(c, opts...)
		if err != nil {
			return err
		}
		acc := core.MeasureAccuracy(ctx, p, env.Targets)
		med := 0.0
		if acc.ErrorCDF != nil && acc.ErrorCDF.N() > 0 {
			med = acc.ErrorCDF.Quantile(0.5)
		}
		fmt.Fprintf(w, "%s\t%.1f%%\t%.1f%%\t%.1f%%\t%.0f km\t%d\t%d\n",
			db.Name(), 100*acc.CountryCoverage(), 100*acc.CountryAccuracy(),
			100*acc.CityCoverage(), med, p.Degraded(), p.Tainted())
		name := strings.ToLower(db.Name())
		rec.SetTaint("remote."+name+".degraded", p.Degraded())
		rec.SetTaint("remote."+name+".tainted", p.Tainted())
		rec.SetTaint("remote."+name+".transport_errors", c.TransportErrors())
		rec.SetTaint("remote."+name+".breaker_opens", c.BreakerStats().Opens)
		// A mid-sweep server hot reload means the answers may span two
		// database generations — taint the run rather than hide it.
		rec.SetTaint("remote."+name+".generation_flips", p.GenerationFlips())
	}
	return w.Flush()
}
