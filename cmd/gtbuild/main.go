// Command gtbuild builds and validates the ground-truth datasets the way
// §2.3 and §3 of the paper do, printing Table 1, the per-domain DNS
// breakdown, the RTT disqualification funnel, and the cross-dataset
// agreement checks. Optionally it dumps the merged dataset as CSV (the
// shape the paper released via IMPACT), or exports it as a queryable
// geolocation database.
//
// Usage:
//
//	gtbuild [-seed N] [-ases N] [-csv out.csv] [-out db.rgsnap|db.csv]
//
// -out writes the ground truth as a per-address (/32) database named
// "GroundTruth", usable anywhere an exported vendor database is — with
// geolookup, geoserve, or geosnap. A .csv path gets a CSV dump; any other
// path an RGSP snapshot stamped with the seed's study build epoch, so
// re-running with the same seed writes the same bytes.
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"

	"routergeo/internal/experiments"
	"routergeo/internal/geodb"
	"routergeo/internal/geodb/dbload"
	"routergeo/internal/geodb/snapshot"
	"routergeo/internal/ipx"
	"routergeo/internal/obs"
)

func main() {
	var (
		seed      = flag.Int64("seed", 1, "world seed")
		ases      = flag.Int("ases", 0, "number of ASes (0 = default)")
		csvPath   = flag.String("csv", "", "write the merged ground truth as CSV to this path")
		outPath   = flag.String("out", "", "export the ground truth as a geolocation database to this path")
		debugAddr = flag.String("debug-addr", "", "optional debug listener serving pprof, /metrics and the /v2/events stream")
	)
	lf := obs.AddLogFlags(flag.CommandLine)
	flag.Parse()

	if _, err := lf.Setup(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "gtbuild:", err)
		os.Exit(2)
	}
	if *debugAddr != "" {
		obs.ServeDebug(*debugAddr, nil, obs.Events(), nil)
	}

	cfg := experiments.DefaultConfig()
	cfg.World.Seed = *seed
	if *ases > 0 {
		cfg.World.ASes = *ases
	}
	ctx := context.Background()
	env, err := experiments.NewEnv(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gtbuild:", err)
		os.Exit(1)
	}

	for _, id := range []string{"table1", "sec31", "sec32"} {
		exp, _ := experiments.ByID(id)
		fmt.Printf("\n================ %s — %s ================\n", exp.ID, exp.Title)
		if err := experiments.RunOne(ctx, exp, os.Stdout, env); err != nil {
			fmt.Fprintln(os.Stderr, "gtbuild:", err)
			os.Exit(1)
		}
	}

	if *outPath != "" {
		db, err := groundTruthDB(env)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gtbuild:", err)
			os.Exit(1)
		}
		meta := snapshot.Meta{BuildEpoch: experiments.SnapshotEpoch(*seed), SourceFormat: "groundtruth"}
		if err := dbload.WriteFile(*outPath, db, meta); err != nil {
			fmt.Fprintln(os.Stderr, "gtbuild:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s database (%d /32 records) to %s\n",
			db.Name(), db.Len(), *outPath)
	}

	if *csvPath == "" {
		return
	}
	f, err := os.Create(*csvPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gtbuild:", err)
		os.Exit(1)
	}
	w := csv.NewWriter(f)
	// The IMPACT release shape: address, lat, lon, country, method.
	if err := w.Write([]string{"ip", "lat", "lon", "country", "method", "rir"}); err != nil {
		fmt.Fprintln(os.Stderr, "gtbuild:", err)
		os.Exit(1)
	}
	for _, e := range env.GT.Entries {
		rec := []string{
			e.Addr.String(),
			strconv.FormatFloat(e.Coord.Lat, 'f', 4, 64),
			strconv.FormatFloat(e.Coord.Lon, 'f', 4, 64),
			e.Country,
			e.Method.String(),
			env.W.Reg.RIROf(e.Addr).String(),
		}
		if err := w.Write(rec); err != nil {
			fmt.Fprintln(os.Stderr, "gtbuild:", err)
			os.Exit(1)
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		fmt.Fprintln(os.Stderr, "gtbuild:", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "gtbuild:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %d ground-truth rows to %s\n", env.GT.Len(), *csvPath)
}

// groundTruthDB turns the merged ground truth into a queryable database
// of per-address records. GT entries carry coordinates and country but no
// city name, so the city is looked up from the world through the entry's
// interface — the same authoritative location the entry was derived from.
func groundTruthDB(env *experiments.Env) (*geodb.DB, error) {
	b := geodb.NewBuilder("GroundTruth")
	for _, e := range env.GT.Entries {
		city := env.W.CityOf(e.Iface)
		b.Add(0, ipx.Range{Lo: e.Addr, Hi: e.Addr}, geodb.Record{
			Country:    e.Country,
			City:       city.Name,
			Coord:      e.Coord,
			Resolution: geodb.ResolutionCity,
			BlockBits:  32,
		})
	}
	return b.Build()
}
