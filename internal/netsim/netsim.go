// Package netsim builds and holds the synthetic Internet the whole
// reproduction measures: autonomous systems with points of presence in
// real-world cities, routers with link-attached interfaces, IPv4
// allocations delegated through internal/registry, and a connected link
// graph with geographically derived delays.
//
// The world substitutes for the live Internet that CAIDA Ark and RIPE
// Atlas measured in the paper. Its essential property is that *truth is
// known exactly*: every interface has a definite location, so the
// evaluation in internal/core can score databases without the paper's
// ground-truth uncertainty. The generator deliberately plants the
// phenomena the paper attributes its findings to:
//
//   - multinational organizations register all address space at their
//     headquarters while operating PoPs abroad (the registry-bias error
//     source behind §5.2.2 and §5.2.3);
//   - a fraction of /24 blocks are assigned across PoPs, so block-level
//     location records cannot be right for every interface (§5.2.3);
//   - seven operator domains with DNS-decodable location hints, matching
//     the paper's DNS-based ground-truth domains (§2.3.1).
package netsim

import (
	"cmp"
	"slices"
	"sort"
	"strings"

	"routergeo/internal/gazetteer"
	"routergeo/internal/geo"
	"routergeo/internal/ipx"
	"routergeo/internal/registry"
)

// RouterID indexes a router within a World.
type RouterID int32

// IfaceID indexes an interface within a World.
type IfaceID int32

// PoP is one point of presence: a city where an AS operates routers.
type PoP struct {
	City    gazetteer.City
	Routers []RouterID
}

// AS is one autonomous system in the world.
type AS struct {
	ASN           registry.ASN
	Org           registry.OrgID
	Name          string
	Domain        string // rDNS suffix for this operator's router names
	RIR           geo.RIR
	HomeCountry   string // ISO2 of the headquarters
	HomeCity      string
	Transit       bool
	Multinational bool
	// HintScheme names the hostname grammar internal/rdns uses for this
	// operator; HintCoverage is the fraction of its interfaces whose
	// hostnames embed a decodable location hint.
	HintScheme   string
	HintCoverage float64
	// RoutersPerPoPMax overrides the world model's per-PoP router cap
	// for this AS (0 = the model's cap).
	RoutersPerPoPMax int
	PoPs             []PoP
	Prefixes         []ipx.Prefix // registry delegations
}

// Router is one router, pinned to a PoP with a jittered position inside
// the PoP's city.
type Router struct {
	ID     RouterID
	AS     int // index into World.ASes
	PoP    int // index into AS.PoPs
	Coord  geo.Coordinate
	Ifaces []IfaceID
}

// Interface is one numbered router interface. Interfaces are created in
// pairs when links are installed, so the interface-per-router ratio lands
// near the ~3.4 the paper's ITDK alias data implies.
type Interface struct {
	ID     IfaceID
	Addr   ipx.Addr
	Router RouterID
	Link   int32 // index into World.Links
}

// Link is an undirected adjacency between two routers with a fixed one-way
// propagation delay.
type Link struct {
	A, B           RouterID
	AIface, BIface IfaceID
	OneWayMs       float64
}

// Hop is one adjacency as seen from a specific router, used by the
// traceroute engine: crossing to Peer reveals PeerIface (the ingress
// interface) and costs OneWayMs of propagation each way.
type Hop struct {
	Peer      RouterID
	PeerIface IfaceID
	OneWayMs  float64
}

// World is the fully built synthetic Internet. It is immutable after
// Build and safe for concurrent readers.
type World struct {
	Gaz *gazetteer.Gazetteer
	Reg *registry.Registry

	ASes       []AS
	Routers    []Router
	Interfaces []Interface
	Links      []Link

	adj    [][]Hop
	idx    *routerIndex           // answers NearestRouter and the probe attachments
	blocks map[ipx.Addr][]IfaceID // /24 base -> its interfaces, ascending ID
}

// NumASes etc. give the world's scale.
func (w *World) NumASes() int       { return len(w.ASes) }
func (w *World) NumRouters() int    { return len(w.Routers) }
func (w *World) NumInterfaces() int { return len(w.Interfaces) }
func (w *World) NumLinks() int      { return len(w.Links) }

// ASOfRouter returns the AS operating a router.
func (w *World) ASOfRouter(r RouterID) *AS { return &w.ASes[w.Routers[r].AS] }

// ASOfIface returns the AS operating an interface.
func (w *World) ASOfIface(i IfaceID) *AS { return w.ASOfRouter(w.Interfaces[i].Router) }

// RouterOf returns the router an interface belongs to.
func (w *World) RouterOf(i IfaceID) *Router { return &w.Routers[w.Interfaces[i].Router] }

// CityOf returns the city a router interface is located in — the exact
// truth the evaluation scores databases against.
func (w *World) CityOf(i IfaceID) gazetteer.City {
	r := w.RouterOf(i)
	return w.ASes[r.AS].PoPs[r.PoP].City
}

// CoordOf returns the interface's precise coordinates (its router's
// jittered position).
func (w *World) CoordOf(i IfaceID) geo.Coordinate { return w.RouterOf(i).Coord }

// IfaceByAddr resolves an address to its interface. A /24's cursor
// hands out .1, .2, … in order and every address it hands out becomes
// the block's next interface, so the k-th entry of BlockIfaces holds
// base+1+k.
func (w *World) IfaceByAddr(a ipx.Addr) (IfaceID, bool) {
	ids := w.BlockIfaces(a)
	if k := a - a.Slash24().Base - 1; k < ipx.Addr(len(ids)) {
		return ids[k], true
	}
	return 0, false
}

// Neighbors returns a router's adjacencies. The returned slice is shared;
// callers must not modify it.
func (w *World) Neighbors(r RouterID) []Hop { return w.adj[r] }

// DestRouterFor returns the router a probe toward addr will terminate at:
// the owner of the address's /24, which is the router of the block's
// lowest-ID interface (Ark probes random addresses inside routed /24s;
// the reply comes from the block's router). ok is false for unrouted
// space.
func (w *World) DestRouterFor(a ipx.Addr) (RouterID, bool) {
	if id, ok := w.IfaceByAddr(a); ok {
		return w.Interfaces[id].Router, true
	}
	if ids := w.BlockIfaces(a); len(ids) > 0 {
		return w.Interfaces[ids[0]].Router, true
	}
	return 0, false
}

// BlockIfaces returns the interfaces numbered from addr's /24 block in
// ascending ID order, or nil for unrouted space. The returned slice is
// shared; callers must not modify it.
func (w *World) BlockIfaces(a ipx.Addr) []IfaceID { return w.blocks[a.Slash24().Base] }

// RoutedSlash24s returns the base address of every /24 with at least one
// numbered interface, in ascending base-address order so downstream
// seeded sampling (Ark target selection, vendor feeds) is reproducible
// without each caller re-sorting.
func (w *World) RoutedSlash24s() []ipx.Prefix {
	out := make([]ipx.Prefix, 0, len(w.blocks))
	for base := range w.blocks {
		out = append(out, ipx.Prefix{Base: base, Bits: 24})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Base < out[j].Base })
	return out
}

// BlockCityCount returns how many distinct cities the interfaces of addr's
// /24 block sit in. A count above 1 means block-level location records are
// necessarily wrong for part of the block — the §5.2.3 mechanism.
func (w *World) BlockCityCount(a ipx.Addr) int {
	return len(tallyCities(w.BlockIfaces(a), w.CityOf))
}

// BlockCities returns the distinct cities hosting interfaces of addr's
// /24 block, ordered by (Country, Name), for the block co-locality
// analysis the paper defers to future work ("We do not investigate
// blocks co-locality in this work", §5.2.3).
func (w *World) BlockCities(a ipx.Addr) []gazetteer.City {
	tally := tallyCities(w.BlockIfaces(a), w.CityOf)
	out := make([]gazetteer.City, len(tally))
	for i, c := range tally {
		out[i] = c.city
	}
	return out
}

// BlockMajorityCity returns the city hosting the most interfaces of addr's
// /24 block. Vendor measurement pipelines resolve a probed block to its
// dominant site, so this is what a good block-level correction learns.
// ok is false for blocks with no interfaces.
func (w *World) BlockMajorityCity(a ipx.Addr) (gazetteer.City, bool) {
	return majorityCity(tallyCities(w.BlockIfaces(a), w.CityOf))
}

// cityCount is one city of a /24 block and how many of the block's
// interfaces sit in it.
type cityCount struct {
	city gazetteer.City
	n    int
}

// tallyCities counts ids by the city cityOf places each in, ordered by
// (Country, Name).
func tallyCities(ids []IfaceID, cityOf func(IfaceID) gazetteer.City) []cityCount {
	var out []cityCount
	for _, id := range ids {
		c := cityOf(id)
		i, found := slices.BinarySearchFunc(out, c, func(e cityCount, c gazetteer.City) int {
			return cmp.Or(strings.Compare(e.city.Country, c.Country), strings.Compare(e.city.Name, c.Name))
		})
		if found {
			out[i].n++
		} else {
			out = slices.Insert(out, i, cityCount{city: c, n: 1})
		}
	}
	return out
}

// majorityCity returns the city of a tally with the most interfaces, the
// first in the tally's order on a tie. ok is false for an empty tally.
func majorityCity(tally []cityCount) (gazetteer.City, bool) {
	var best cityCount
	for _, c := range tally {
		if c.n > best.n {
			best = c
		}
	}
	return best.city, best.n > 0
}

// PeerIface returns the interface on the opposite end of i's link. Every
// interface in the world is link-attached, so this always resolves.
func (w *World) PeerIface(i IfaceID) IfaceID {
	l := w.Links[w.Interfaces[i].Link]
	if l.AIface == i {
		return l.BIface
	}
	return l.AIface
}
