// Command geosnap compiles geolocation databases into RGSP snapshots —
// the memory-mappable format geoserve hot-reloads from — and inspects
// existing snapshot files. It is the publisher half of the zero-downtime
// deployment story: build or convert databases here, write them into the
// server's -snap-dir (the writer renames complete files into place, so a
// polling server never observes a partial snapshot), and the server
// swaps the new generation in without dropping a request.
//
// Usage:
//
//	geosnap -build [-seed N] -out dir [-epoch E]      # build a study, snapshot its databases
//	geosnap -build -epochs N -interval-months M ...   # publish a longitudinal snapshot series
//	geosnap -db file [-db ...] -out dir_or_file       # convert existing database files
//	geosnap -info file.rgsnap [file...]               # print snapshot identity and stats
//	geosnap -diff old.rgsnap new.rgsnap               # diff two snapshots of one database
//
// Conversion accepts either supported input format (CSV dump or an
// existing snapshot), sniffed by magic bytes. -epoch overrides the
// recorded build time (unix seconds), which feeds the generation id:
// re-publishing identical data under a new epoch yields a new generation,
// which is how an operator forces a visible flip without changing bytes
// of the database itself. Left unset, the epoch is deterministic — a
// study build stamps experiments.SnapshotEpoch(seed), as routergeo
// -dbdir does, and a conversion keeps each source's recorded epoch — so
// the same inputs always republish the same bytes. An explicit -epoch
// value is honored verbatim, including 0.
//
// With -epochs N (and -build), geosnap publishes a time series instead
// of a single generation: epoch k rebuilds the four vendor databases as
// of k·M months on the world's churn timeline (the same evolution the
// §3 analyses consume) and writes them under <out>/epoch-00k/, each
// stamped with a build epoch M months after the previous. The series is
// a pure function of the seed: re-running the command reproduces every
// snapshot byte for byte.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"routergeo/internal/experiments"
	"routergeo/internal/geodb"
	"routergeo/internal/geodb/dbload"
	"routergeo/internal/geodb/snapshot"
	"routergeo/internal/obs"
	"routergeo/internal/stats"
)

type dbList []string

func (d *dbList) String() string     { return strings.Join(*d, ",") }
func (d *dbList) Set(v string) error { *d = append(*d, v); return nil }

// secondsPerMonth is the mean Gregorian month, the step between epochs
// in a published series.
const secondsPerMonth = 2_629_800

// buildEpochFor resolves the tri-state -epoch flag for a study build:
// an explicitly set value is honored verbatim — including 0, which used
// to be unrepresentable because it meant "now" — and an unset flag
// yields the seed-derived default every study export shares, so the
// default publish is reproducible instead of stamping wall-clock time.
func buildEpochFor(seed, epoch int64, epochSet bool) int64 {
	if epochSet {
		return epoch
	}
	return experiments.SnapshotEpoch(seed)
}

func main() {
	var (
		build     = flag.Bool("build", false, "build a study and snapshot its four vendor databases")
		seed      = flag.Int64("seed", 1, "world seed (with -build)")
		out       = flag.String("out", "", "output directory (or single-file path with exactly one -db)")
		epoch     = flag.Int64("epoch", 0, "build epoch recorded in the snapshot, unix seconds (unset = deterministic: seed-derived for -build, source-preserved for -db)")
		epochs    = flag.Int("epochs", 1, "number of epochs to publish (with -build; >1 writes a series under <out>/epoch-NNN/)")
		interval  = flag.Float64("interval-months", 4, "months of churn between epochs in a series (with -epochs)")
		info      = flag.Bool("info", false, "inspect snapshot files named as arguments instead of writing")
		diff      = flag.Bool("diff", false, "diff the two snapshot files named as arguments")
		debugAddr = flag.String("debug-addr", "", "optional debug listener serving pprof, /metrics and the /v2/events stream")
		dbPaths   dbList
	)
	lf := obs.AddLogFlags(flag.CommandLine)
	flag.Var(&dbPaths, "db", "database file to convert, any format (repeatable)")
	flag.Parse()

	// The -epoch flag is tri-state: only an explicit value (including 0)
	// overrides the deterministic default.
	epochSet := false
	flag.CommandLine.Visit(func(f *flag.Flag) {
		if f.Name == "epoch" {
			epochSet = true
		}
	})

	if _, err := lf.Setup(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "geosnap:", err)
		os.Exit(2)
	}
	if *debugAddr != "" {
		obs.ServeDebug(*debugAddr, nil, obs.Events(), nil)
	}

	if *info {
		os.Exit(infoMain(flag.Args()))
	}
	if *diff {
		os.Exit(diffMain(flag.Args()))
	}

	if *out == "" || (*build == (len(dbPaths) > 0)) || *epochs < 1 || *interval <= 0 {
		fmt.Fprintln(os.Stderr, "usage: geosnap -build [-seed N] -out dir [-epoch E] [-epochs N -interval-months M]")
		fmt.Fprintln(os.Stderr, "       geosnap -db file [-db ...] -out dir_or_file [-epoch E]")
		fmt.Fprintln(os.Stderr, "       geosnap -info file.rgsnap [file...]")
		fmt.Fprintln(os.Stderr, "       geosnap -diff old.rgsnap new.rgsnap")
		os.Exit(2)
	}
	if *epochs > 1 && !*build {
		fmt.Fprintln(os.Stderr, "geosnap: -epochs needs -build (a series rebuilds the study per epoch)")
		os.Exit(2)
	}

	if *build {
		os.Exit(buildMain(*seed, *out, *epoch, epochSet, *epochs, *interval))
	}

	var dbs []*geodb.DB
	for _, p := range dbPaths {
		l, err := dbload.Open(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "geosnap:", err)
			os.Exit(1)
		}
		// The mapping (if any) stays open until the process exits; the
		// write below only reads from it.
		dbs = append(dbs, l.DB)
	}

	// A single input may target a file path directly; everything else
	// writes <out>/<name>.rgsnap per database. Without an explicit
	// -epoch, each conversion keeps its source's recorded epoch, so
	// converting the same file twice yields the same bytes.
	singleFile := len(dbs) == 1 && strings.HasSuffix(*out, snapshot.Ext)
	if !singleFile {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "geosnap:", err)
			os.Exit(1)
		}
	}
	for _, db := range dbs {
		path := *out
		if !singleFile {
			path = filepath.Join(*out, strings.ToLower(db.Name())+snapshot.Ext)
		}
		meta := snapshot.Meta{
			BuildEpoch:   db.Meta().BuildEpoch,
			SourceFormat: db.Meta().SourceFormat,
		}
		if epochSet {
			meta.BuildEpoch = *epoch
		}
		if err := snapshot.WriteFile(path, db, meta); err != nil {
			fmt.Fprintln(os.Stderr, "geosnap:", err)
			os.Exit(1)
		}
		if err := report(path); err != nil {
			fmt.Fprintln(os.Stderr, "geosnap:", err)
			os.Exit(1)
		}
	}
}

// buildMain builds the study and publishes one generation — or, with
// epochs > 1, a dated series with each epoch's databases rebuilt at the
// matching churn horizon.
func buildMain(seed int64, out string, epoch int64, epochSet bool, epochs int, intervalMonths float64) int {
	base := buildEpochFor(seed, epoch, epochSet)

	cfg := experiments.DefaultConfig()
	cfg.World.Seed = seed
	fmt.Fprintln(os.Stderr, "building study...")
	start := time.Now()
	env, err := experiments.NewEnv(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "geosnap:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "built in %v\n", time.Since(start).Round(time.Millisecond))

	for k := 0; k < epochs; k++ {
		dbs := env.DBs
		if k > 0 {
			dbs, err = env.BuildDBsAt(context.Background(), float64(k)*intervalMonths)
			if err != nil {
				fmt.Fprintln(os.Stderr, "geosnap:", err)
				return 1
			}
		}
		dir := out
		if epochs > 1 {
			dir = filepath.Join(out, fmt.Sprintf("epoch-%03d", k))
		}
		meta := snapshot.Meta{
			BuildEpoch:   base + int64(float64(k)*intervalMonths*secondsPerMonth),
			SourceFormat: "study",
		}
		paths, err := experiments.WriteSnapshots(dir, dbs, meta)
		if err != nil {
			fmt.Fprintln(os.Stderr, "geosnap:", err)
			return 1
		}
		for _, path := range paths {
			if err := report(path); err != nil {
				fmt.Fprintln(os.Stderr, "geosnap:", err)
				return 1
			}
		}
	}
	return 0
}

// report prints the identity of a freshly written snapshot.
func report(path string) error {
	si, err := snapshot.Inspect(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s: generation %s, %d ranges, %d records, %d bytes\n",
		path, si.Generation, si.Ranges, si.Records, si.Size)
	return nil
}

// infoMain prints the identity block of each snapshot — the same fields
// /v2/databases reports for a served generation.
func infoMain(paths []string) int {
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "usage: geosnap -info file.rgsnap [file...]")
		return 2
	}
	exit := 0
	for _, p := range paths {
		si, err := snapshot.Inspect(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "geosnap: %s: %v\n", p, err)
			exit = 1
			continue
		}
		fmt.Printf("%s\n", p)
		fmt.Printf("  name:          %s\n", si.Name)
		fmt.Printf("  generation:    %s\n", si.Generation)
		fmt.Printf("  checksum:      %016x\n", si.Checksum)
		fmt.Printf("  build epoch:   %d (%s)\n", si.BuildEpoch,
			time.Unix(si.BuildEpoch, 0).UTC().Format(time.RFC3339))
		fmt.Printf("  source format: %s\n", si.SourceFormat)
		fmt.Printf("  ranges:        %d\n", si.Ranges)
		fmt.Printf("  records:      %d\n", si.Records)
		fmt.Printf("  size:          %d bytes\n", si.Size)
	}
	return exit
}

// diffMain compares two snapshots of the same database across epochs and
// prints the range-level churn report: segments and addresses added,
// removed, moved and unchanged, plus the distribution of how far moved
// blocks traveled. The output is deterministic for a given input pair.
func diffMain(paths []string) int {
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "usage: geosnap -diff old.rgsnap new.rgsnap")
		return 2
	}
	load := func(p string) (*geodb.DB, error) {
		l, err := dbload.Open(p)
		if err != nil {
			return nil, err
		}
		return l.DB, nil
	}
	oldDB, err := load(paths[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "geosnap:", err)
		return 1
	}
	newDB, err := load(paths[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "geosnap:", err)
		return 1
	}

	d := snapshot.Compare(oldDB, newDB)
	fmt.Printf("%s -> %s\n", paths[0], paths[1])
	fmt.Printf("  added:     %6d segments  %10d addrs\n", d.AddedSegments, d.AddedAddrs)
	fmt.Printf("  removed:   %6d segments  %10d addrs\n", d.RemovedSegments, d.RemovedAddrs)
	fmt.Printf("  moved:     %6d segments  %10d addrs\n", d.MovedSegments, d.MovedAddrs)
	fmt.Printf("  unchanged: %6d segments  %10d addrs\n", d.UnchangedSegments, d.UnchangedAddrs)
	if e := d.Distances; e != nil && e.N() > 0 {
		fmt.Printf("  move distance (km over %d city moves):\n", e.N())
		fmt.Printf("    p50 %.1f  p90 %.1f  p99 %.1f  max %.1f  within 40km %s\n",
			e.Quantile(0.50), e.Quantile(0.90), e.Quantile(0.99), e.Max(),
			stats.Pct(e.FractionAtOrBelow(40)))
	}
	return 0
}
