// Command arkcollect runs the Ark-style topology sweep on its own and
// dumps the observed router-interface dataset — the reproduction's
// equivalent of extracting the Ark-topo-router addresses from one week of
// the CAIDA topology dataset (§2.1). It also prints the ITDK-style alias
// summary (interfaces per observed router).
//
// Usage:
//
//	arkcollect [-seed N] [-ases N] [-monitors N] [-cycles N] [-out file]
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"

	"routergeo/internal/ark"
	"routergeo/internal/experiments"
	"routergeo/internal/netsim"
	"routergeo/internal/obs"
)

func main() {
	var (
		seed      = flag.Int64("seed", 1, "world seed")
		ases      = flag.Int("ases", 0, "number of ASes (0 = default)")
		monitors  = flag.Int("monitors", 0, "number of monitors (0 = default)")
		cycles    = flag.Int("cycles", 0, "probing cycles (0 = default)")
		out       = flag.String("out", "", "write one observed address per line to this file ('-' = stdout)")
		debugAddr = flag.String("debug-addr", "", "optional debug listener serving pprof, /metrics and the /v2/events stream")
	)
	lf := obs.AddLogFlags(flag.CommandLine)
	flag.Parse()

	if _, err := lf.Setup(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "arkcollect:", err)
		os.Exit(2)
	}
	if *debugAddr != "" {
		obs.ServeDebug(*debugAddr, nil, obs.Events(), nil)
	}

	w, coll, err := collect(*seed, *ases, *monitors, *cycles)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arkcollect:", err)
		os.Exit(1)
	}

	aliases := ark.AliasSets(w, coll)
	fmt.Fprintf(os.Stderr, "world: %d routers, %d interfaces\n", w.NumRouters(), w.NumInterfaces())
	fmt.Fprintf(os.Stderr, "sweep: %d monitors, %d traces\n", len(coll.Monitors), coll.Traces)
	fmt.Fprintf(os.Stderr, "observed: %d interfaces on %d routers (%.2f interfaces/router; the paper's 1,638K/485K = 3.38)\n",
		len(coll.Interfaces), len(aliases), float64(len(coll.Interfaces))/float64(len(aliases)))

	if *out == "" {
		return
	}
	f := os.Stdout
	if *out != "-" {
		f, err = os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "arkcollect:", err)
			os.Exit(1)
		}
	}
	bw := bufio.NewWriter(f)
	for _, id := range coll.Interfaces {
		fmt.Fprintln(bw, w.Interfaces[id].Addr)
	}
	if err := bw.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "arkcollect:", err)
		os.Exit(1)
	}
	if f != os.Stdout {
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "arkcollect:", err)
			os.Exit(1)
		}
	}
}

// collect builds the world and runs the sweep experiments.NewEnv runs for
// experiments.DefaultConfig() at this world seed, with each nonzero size
// in place of the default. The sweep keeps the default Ark seed, as
// NewEnv does, so its addresses are NewEnv's ArkAddrs.
func collect(seed int64, ases, monitors, cycles int) (*netsim.World, *ark.Collection, error) {
	cfg := experiments.DefaultConfig()
	cfg.World.Seed = seed
	if ases > 0 {
		cfg.World.ASes = ases
	}
	if monitors > 0 {
		cfg.Ark.Monitors = monitors
	}
	if cycles > 0 {
		cfg.Ark.Cycles = cycles
	}
	if err := cfg.Ark.Validate(); err != nil {
		return nil, nil, err
	}
	w, err := netsim.Build(cfg.World)
	if err != nil {
		return nil, nil, err
	}
	return w, ark.Collect(context.Background(), w, cfg.Ark), nil
}
