// Package ark reproduces the CAIDA Ark topology pipeline the paper's
// Ark-topo-router dataset comes from (§2.1): a fleet of monitors spread
// around the world runs traceroutes toward randomly selected addresses in
// every routed /24, and the union of intermediate-hop addresses is the
// router-interface dataset. An ITDK-style alias-resolution step groups the
// collected interfaces into routers to estimate the router count (the
// paper's 1,638K interfaces ≈ 485K routers).
package ark

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"routergeo/internal/gazetteer"
	"routergeo/internal/ipx"
	"routergeo/internal/netsim"
	"routergeo/internal/obs"
	"routergeo/internal/par"
	"routergeo/internal/traceroute"
)

// Config parameterizes a collection sweep.
type Config struct {
	// Monitors is the number of vantage points (Ark ran ~107 in 2016; the
	// default world uses 60, plenty for full edge coverage of a world three
	// orders of magnitude smaller than the Internet).
	Monitors int
	// Cycles is how many probing cycles the sweep runs (the paper uses one
	// week of daily team-probing cycles). Each cycle re-probes every /24
	// from freshly drawn monitors toward a freshly drawn address.
	Cycles int
	// Seed drives monitor placement and target selection.
	Seed int64
}

// DefaultConfig returns the sweep parameters the experiments use.
func DefaultConfig() Config {
	return Config{Monitors: 60, Cycles: 7, Seed: 1}
}

// Validate reports a monitor count the sweep cannot place: each monitor
// sits in its own embedded city, so Monitors must lie in 1 to
// gazetteer.NumCities().
func (c Config) Validate() error {
	if c.Monitors < 1 || c.Monitors > gazetteer.NumCities() {
		return fmt.Errorf("ark: %d monitors; want 1 to %d, one per embedded city", c.Monitors, gazetteer.NumCities())
	}
	return nil
}

// monitorsPerTarget is how many distinct monitors probe each routed /24
// during one cycle.
const monitorsPerTarget = 3

// Monitor is one Ark vantage point. Monitors sit in well-connected
// facilities, so their access delay is negligible and they are attached
// directly to a nearby router.
type Monitor struct {
	Name   string
	City   gazetteer.City
	Router netsim.RouterID
}

// Collection is the result of one topology sweep.
type Collection struct {
	Monitors []Monitor
	// Interfaces is the deduplicated, address-sorted set of router
	// interfaces observed as intermediate or terminal hops — the
	// reproduction's Ark-topo-router dataset.
	Interfaces []netsim.IfaceID
	// Traces is the number of traceroutes run.
	Traces int
}

// Collect runs one full sweep over every routed /24 in the world. It
// panics on a cfg that Validate rejects.
func Collect(ctx context.Context, w *netsim.World, cfg Config) *Collection {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	_, sp := obs.Start(ctx, "ark.collect")
	defer sp.End()
	rng := rand.New(rand.NewSource(cfg.Seed))

	monitors := placeMonitors(w, rng, cfg.Monitors)
	// The trees are independent and draw nothing, so they build on the
	// engine's workers.
	trees := make([]*traceroute.Tree, len(monitors))
	par.Each(len(monitors), func(i int) { trees[i] = traceroute.BuildTree(w, monitors[i].Router) })

	c := &Collection{Monitors: monitors}
	seen := make([]bool, len(w.Interfaces))

	// RoutedSlash24s is already in ascending address order, so the seeded
	// per-block sampling below replays identically run to run.
	blocks := w.RoutedSlash24s()

	cycles := cfg.Cycles
	if cycles < 1 {
		cycles = 1
	}
	sp.SetAttr("monitors", len(monitors))
	sp.SetAttr("cycles", cycles)
	prog := obs.NewProgress("ark.collect", int64(cycles)*int64(len(blocks)))
	defer prog.Finish()
	var path []netsim.IfaceID // one buffer serves every trace of the sweep
	for cycle := 0; cycle < cycles; cycle++ {
		for _, blk := range blocks {
			prog.Add(1)
			// Ark picks a random address inside each /24.
			target := blk.Base + ipx.Addr(1+rng.Intn(254))
			dst, ok := w.DestRouterFor(target)
			if !ok {
				continue
			}
			for k := 0; k < monitorsPerTarget; k++ {
				mi := rng.Intn(len(monitors))
				path = trees[mi].Trace(dst, path[:0])
				c.Traces++
				for _, id := range path {
					if !seen[id] {
						seen[id] = true
						c.Interfaces = append(c.Interfaces, id)
					}
				}
			}
		}
	}
	sort.Slice(c.Interfaces, func(i, j int) bool {
		return w.Interfaces[c.Interfaces[i]].Addr < w.Interfaces[c.Interfaces[j]].Addr
	})
	sp.SetItems(int64(len(c.Interfaces)))
	sp.SetAttr("traces", c.Traces)
	return c
}

// AliasSets groups the collected interfaces by router, as ITDK alias
// resolution does, returning the per-router interface groups (routers with
// at least one observed interface).
func AliasSets(w *netsim.World, c *Collection) map[netsim.RouterID][]netsim.IfaceID {
	out := make(map[netsim.RouterID][]netsim.IfaceID)
	for _, id := range c.Interfaces {
		r := w.Interfaces[id].Router
		out[r] = append(out[r], id)
	}
	return out
}

// placeMonitors spreads vantage points over the gazetteer's cities
// (population-weighted, deduplicated) and attaches each to the nearest
// router in its country.
func placeMonitors(w *netsim.World, rng *rand.Rand, n int) []Monitor {
	var out []Monitor
	used := make([]bool, gazetteer.NumCities()+1)
	for len(out) < n {
		city := w.Gaz.SampleCity(rng, "")
		if used[city.ID] {
			continue
		}
		used[city.ID] = true
		r, ok := w.NearestRouter(city.Coord, city.Country)
		if !ok {
			continue
		}
		out = append(out, Monitor{
			Name:   "ark-" + city.Country + "/" + city.Name,
			City:   city,
			Router: r,
		})
	}
	return out
}
