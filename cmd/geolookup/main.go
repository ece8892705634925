// Command geolookup queries geolocation databases for one or more IPv4
// addresses, printing each database's answer side by side — a miniature
// of the pairwise-consistency view the paper builds at scale.
//
// Local mode reads exported database files (written by cmd/routergeo
// -dbdir, cmd/geosnap or Study.ExportDatabases); remote mode queries a
// running geoserve instance through the batch /v2/lookup endpoint.
//
// Usage:
//
//	geolookup -db dir_or_file [-db ...] ip [ip...]         # local files
//	geolookup -server http://host:8080 [-rdb N] [ip...]    # remote /v2
//
// Each -db flag names one database file (.rgsnap or .csv), or a
// directory containing several; formats are sniffed by magic bytes, not
// extension. In remote mode, addresses missing from the command line
// are read from stdin (one per line), so a whole Ark-style address file
// pipes through one batched request stream:
//
//	geolookup -server http://host:8080 < addrs.txt
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"routergeo/internal/geodb"
	"routergeo/internal/geodb/dbload"
	"routergeo/internal/geodb/httpapi"
	"routergeo/internal/ipx"
	"routergeo/internal/obs"
)

type dbList []string

func (d *dbList) String() string     { return strings.Join(*d, ",") }
func (d *dbList) Set(v string) error { *d = append(*d, v); return nil }

func main() {
	var (
		server    = flag.String("server", "", "geoserve base URL; queries /v2/lookup instead of local files")
		remoteDB  = flag.String("rdb", "", "with -server: restrict lookups to one database name")
		debugAddr = flag.String("debug-addr", "", "optional debug listener serving pprof, /metrics and the /v2/events stream")
		dbPaths   dbList
	)
	lf := obs.AddLogFlags(flag.CommandLine)
	flag.Var(&dbPaths, "db", "path to a database file or a directory of them (repeatable)")
	flag.Parse()

	// Setup installs the slog default the client's retry warnings go to.
	if _, err := lf.Setup(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "geolookup:", err)
		os.Exit(2)
	}
	if *debugAddr != "" {
		obs.ServeDebug(*debugAddr, nil, obs.Events(), nil)
	}

	if *server != "" {
		os.Exit(remoteMain(*server, *remoteDB, flag.Args()))
	}

	if len(dbPaths) == 0 || flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: geolookup -db dir_or_file [-db ...] ip [ip...]")
		fmt.Fprintln(os.Stderr, "       geolookup -server URL [-rdb name] [ip...] (< addrs.txt)")
		os.Exit(2)
	}

	var dbs []*geodb.DB
	for _, p := range dbPaths {
		loaded, err := dbload.Load(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "geolookup:", err)
			os.Exit(1)
		}
		dbs = append(dbs, loaded...)
	}
	if len(dbs) == 0 {
		fmt.Fprintln(os.Stderr, "geolookup: no databases loaded")
		os.Exit(1)
	}

	exit := 0
	for _, arg := range flag.Args() {
		addr, err := ipx.ParseAddr(arg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "geolookup: %v\n", err)
			exit = 1
			continue
		}
		fmt.Printf("%s\n", addr)
		for _, db := range dbs {
			rec, ok := db.Lookup(addr)
			printAnswer(db.Name(), toRecordJSON(rec, ok))
		}
	}
	os.Exit(exit)
}

// remoteMain is the -server path: batch the addresses (command line,
// else stdin) through POST /v2/lookup and print the same side-by-side
// view the local mode produces.
func remoteMain(baseURL, db string, args []string) int {
	ips := args
	if len(ips) == 0 {
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			ips = append(ips, line)
		}
		if err := sc.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "geolookup: stdin:", err)
			return 1
		}
	}
	if len(ips) == 0 {
		fmt.Fprintln(os.Stderr, "geolookup: no addresses (pass as arguments or on stdin)")
		return 2
	}

	c := httpapi.NewClient(baseURL, httpapi.WithDatabase(db))
	entries, err := c.BatchLookup(context.Background(), ips)
	if err != nil {
		fmt.Fprintln(os.Stderr, "geolookup:", err)
		return 1
	}
	exit := 0
	for _, e := range entries {
		fmt.Printf("%s\n", e.IP)
		if e.Error != "" {
			fmt.Printf("  %-18s %s\n", "error:", e.Error)
			exit = 1
			continue
		}
		names := make([]string, 0, len(e.Results))
		for name := range e.Results {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			printAnswer(name, e.Results[name])
		}
	}
	return exit
}

// toRecordJSON puts a local answer into the wire form so local and
// remote answers print through one code path.
func toRecordJSON(rec geodb.Record, ok bool) httpapi.RecordJSON {
	if !ok {
		return httpapi.RecordJSON{Resolution: "none"}
	}
	return httpapi.RecordJSON{
		Country:    rec.Country,
		City:       rec.City,
		Lat:        rec.Coord.Lat,
		Lon:        rec.Coord.Lon,
		Resolution: rec.Resolution.String(),
		BlockBits:  rec.BlockBits,
		Found:      true,
	}
}

func printAnswer(name string, r httpapi.RecordJSON) {
	switch {
	case !r.Found:
		fmt.Printf("  %-18s no record\n", name)
	case r.Resolution == "city" && r.City != "" && (r.Lat != 0 || r.Lon != 0):
		fmt.Printf("  %-18s %s / %s (%.4f,%.4f) [/%d record]\n",
			name, r.Country, r.City, r.Lat, r.Lon, r.BlockBits)
	case r.Country != "":
		fmt.Printf("  %-18s %s (country only) [/%d record]\n",
			name, r.Country, r.BlockBits)
	default:
		fmt.Printf("  %-18s empty record\n", name)
	}
}
