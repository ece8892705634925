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
	"math/rand"
	"sort"

	"routergeo/internal/gazetteer"
	"routergeo/internal/ipx"
	"routergeo/internal/netsim"
	"routergeo/internal/obs"
	"routergeo/internal/traceroute"
)

// Config parameterizes a collection sweep.
type Config struct {
	// Monitors is the number of vantage points (Ark ran ~107 in 2016; the
	// default world uses 60, plenty for full edge coverage of a world three
	// orders of magnitude smaller than the Internet).
	Monitors int
	// MonitorsPerTarget is how many distinct monitors probe each routed
	// /24 during one cycle.
	MonitorsPerTarget int
	// Cycles is how many probing cycles the sweep runs (the paper uses one
	// week of daily team-probing cycles). Each cycle re-probes every /24
	// from freshly drawn monitors toward a freshly drawn address.
	Cycles int
	// Seed drives monitor placement and target selection.
	Seed int64
	// Sink, when non-nil, receives every raw trace as it is collected —
	// the hook cmd/arkcollect uses to archive the sweep in the wartslite
	// container, the way real Ark stores warts files.
	Sink func(monitor string, dst ipx.Addr, hops []traceroute.Hop) `json:"-"`
}

// DefaultConfig returns the sweep parameters the experiments use.
func DefaultConfig() Config {
	return Config{Monitors: 60, MonitorsPerTarget: 3, Cycles: 7, Seed: 1}
}

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

	addrs map[ipx.Addr]bool
}

// Collect runs one full sweep over every routed /24 in the world.
func Collect(ctx context.Context, w *netsim.World, cfg Config) *Collection {
	_, sp := obs.Start(ctx, "ark.collect")
	defer sp.End()
	rng := rand.New(rand.NewSource(cfg.Seed))
	eng := traceroute.New(w)

	monitors := placeMonitors(w, rng, cfg.Monitors)
	trees := make([]*traceroute.Tree, len(monitors))
	for i, m := range monitors {
		trees[i] = eng.BuildTree(m.Router)
	}

	c := &Collection{Monitors: monitors, addrs: make(map[ipx.Addr]bool)}
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
	for cycle := 0; cycle < cycles; cycle++ {
		for _, blk := range blocks {
			prog.Add(1)
			// Ark picks a random address inside each /24.
			target := blk.Base + ipx.Addr(1+rng.Intn(254))
			dst, ok := w.DestRouterFor(target)
			if !ok {
				continue
			}
			for k := 0; k < cfg.MonitorsPerTarget; k++ {
				mi := rng.Intn(len(monitors))
				hops := eng.Trace(rng, trees[mi], dst, 0)
				c.Traces++
				if cfg.Sink != nil {
					cfg.Sink(monitors[mi].Name, target, hops)
				}
				for _, h := range hops {
					if h.Iface < 0 {
						continue
					}
					if !seen[h.Iface] {
						seen[h.Iface] = true
						c.Interfaces = append(c.Interfaces, h.Iface)
						c.addrs[w.Interfaces[h.Iface].Addr] = true
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

// Contains reports whether an address was observed during the sweep.
func (c *Collection) Contains(a ipx.Addr) bool { return c.addrs[a] }

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
	used := map[string]bool{}
	for len(out) < n {
		city := w.Gaz.SampleCity(rng, "")
		key := city.Country + "/" + city.Name
		if used[key] {
			continue
		}
		used[key] = true
		r, ok := w.NearestRouter(city.Coord, city.Country)
		if !ok {
			continue
		}
		out = append(out, Monitor{
			Name:   "ark-" + key,
			City:   city,
			Router: r,
		})
	}
	return out
}
