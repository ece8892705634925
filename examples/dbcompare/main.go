// DBCompare: the paper's §5.1 consistency analysis as a standalone
// workflow — export the four databases as .rgsnap snapshots, load them
// back the way an external consumer would, and compute pairwise
// agreement over the Ark-observed router addresses. Demonstrates the
// file format round trip plus the consistency methodology.
package main

import (
	"fmt"
	"log"
	"os"

	"routergeo"
	"routergeo/internal/geodb/dbload"
	"routergeo/internal/ipx"
)

func main() {
	study, err := routergeo.New(routergeo.Quick(), routergeo.WithSeed(5))
	if err != nil {
		log.Fatal(err)
	}

	dir, err := os.MkdirTemp("", "dbcompare")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	paths, err := study.ExportDatabases(dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exported %d databases to %s\n\n", len(paths), dir)

	// Load them back through the file format, as an external tool would.
	type db struct {
		name   string
		lookup func(ipx.Addr) (country string, ok bool)
	}
	var dbs []db
	for _, p := range paths {
		loaded, err := dbload.Open(p)
		if err != nil {
			log.Fatal(err)
		}
		defer loaded.Close()
		d := loaded.DB
		dbs = append(dbs, db{
			name: d.Name(),
			lookup: func(a ipx.Addr) (string, bool) {
				rec, ok := d.Lookup(a)
				if !ok || !rec.HasCountry() {
					return "", false
				}
				return rec.Country, true
			},
		})
	}

	var addrs []ipx.Addr
	for _, s := range study.ArkAddresses() {
		a, err := ipx.ParseAddr(s)
		if err != nil {
			log.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	fmt.Printf("comparing over %d router addresses\n\n", len(addrs))

	fmt.Printf("%-18s", "")
	for _, d := range dbs {
		fmt.Printf(" %18s", d.name)
	}
	fmt.Println()
	for i, a := range dbs {
		fmt.Printf("%-18s", a.name)
		for j, b := range dbs {
			if j <= i {
				fmt.Printf(" %18s", "")
				continue
			}
			agree, both := 0, 0
			for _, addr := range addrs {
				ca, okA := a.lookup(addr)
				cb, okB := b.lookup(addr)
				if !okA || !okB {
					continue
				}
				both++
				if ca == cb {
					agree++
				}
			}
			fmt.Printf(" %17.1f%%", 100*float64(agree)/float64(both))
		}
		fmt.Println()
	}
	fmt.Println("\n(country-level agreement; the paper's Ark-scale numbers are 97.0-99.6%,")
	fmt.Println("and §5.1 warns that agreement does not imply correctness)")
}
