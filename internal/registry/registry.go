// Package registry models the Internet number registry system the paper
// consults: the five RIRs' IPv4 pools, per-organization address
// delegations, a Team-Cymru-style whois service (IP → AS, RIR, org), and a
// CAIDA-AS-Rank-style transit classification.
//
// The registry is also the root cause of the paper's central finding:
// geolocation vendors ingest registration data, and an organization's
// blocks are registered at its headquarters even when the routers numbered
// out of them sit on other continents (§5.2.3). The vendor builders in
// internal/vendors therefore read their "registry feed" from this package.
package registry

import (
	"fmt"
	"sort"

	"routergeo/internal/geo"
	"routergeo/internal/ipx"
)

// ASN is an autonomous system number.
type ASN uint32

// OrgID identifies a registered organization.
type OrgID uint32

// Org is an organization that holds address space.
type Org struct {
	ID   OrgID
	Name string
	// HQCountry and HQCity are the registered (whois) location — the
	// organization's headquarters, not where its routers are.
	HQCountry string // ISO2
	HQCity    string
	RIR       geo.RIR // registry of record
}

// Allocation is one delegated prefix.
type Allocation struct {
	Prefix ipx.Prefix
	ASN    ASN
	Org    OrgID
	RIR    geo.RIR
}

// Registry is the authoritative number registry for the synthetic world.
// Construct with New, populate single-threaded, Freeze, then query
// concurrently.
type Registry struct {
	pools   map[geo.RIR][]*ipx.Allocator
	orgs    map[OrgID]Org
	asOrg   map[ASN]OrgID
	transit map[ASN]bool
	allocs  []Allocation
	whois   *ipx.FlatIndex[Allocation]
	frozen  bool
	nextOrg OrgID
}

// DefaultPools returns per-RIR IPv4 pools sized roughly like the real
// delegation shares (ARIN holds by far the most legacy space, AFRINIC the
// least). The specific /8s are synthetic.
func DefaultPools() map[geo.RIR][]ipx.Prefix {
	p := func(s string) ipx.Prefix { return ipx.MustParsePrefix(s) }
	return map[geo.RIR][]ipx.Prefix{
		geo.ARIN: {p("3.0.0.0/8"), p("4.0.0.0/8"), p("12.0.0.0/8"), p("13.0.0.0/8"),
			p("63.0.0.0/8"), p("64.0.0.0/8"), p("65.0.0.0/8"), p("66.0.0.0/8")},
		geo.RIPENCC: {p("77.0.0.0/8"), p("78.0.0.0/8"), p("79.0.0.0/8"),
			p("80.0.0.0/8"), p("81.0.0.0/8"), p("82.0.0.0/8")},
		geo.APNIC: {p("110.0.0.0/8"), p("111.0.0.0/8"), p("112.0.0.0/8"),
			p("113.0.0.0/8"), p("114.0.0.0/8")},
		geo.LACNIC:  {p("177.0.0.0/8"), p("179.0.0.0/8"), p("181.0.0.0/8")},
		geo.AFRINIC: {p("102.0.0.0/8"), p("105.0.0.0/8")},
	}
}

// New returns an empty registry over the given pools. Passing nil uses
// DefaultPools.
func New(pools map[geo.RIR][]ipx.Prefix) *Registry {
	if pools == nil {
		pools = DefaultPools()
	}
	r := &Registry{
		pools:   make(map[geo.RIR][]*ipx.Allocator, len(pools)),
		orgs:    make(map[OrgID]Org),
		asOrg:   make(map[ASN]OrgID),
		transit: make(map[ASN]bool),
		nextOrg: 1,
	}
	for rir, ps := range pools {
		for _, p := range ps {
			r.pools[rir] = append(r.pools[rir], ipx.NewAllocator(p))
		}
	}
	return r
}

// RegisterOrg records an organization and returns its assigned ID.
// The org's RIR is fixed at registration; all its allocations come from
// that registry's pools (as in reality, modulo transfers we do not model).
func (r *Registry) RegisterOrg(name, hqCountry, hqCity string, rir geo.RIR) OrgID {
	if r.frozen {
		panic("registry: RegisterOrg after Freeze")
	}
	id := r.nextOrg
	r.nextOrg++
	r.orgs[id] = Org{ID: id, Name: name, HQCountry: hqCountry, HQCity: hqCity, RIR: rir}
	return id
}

// BindAS associates an AS number with an organization. One org may operate
// several ASes; each AS belongs to exactly one org.
func (r *Registry) BindAS(asn ASN, org OrgID) error {
	if r.frozen {
		panic("registry: BindAS after Freeze")
	}
	if _, ok := r.orgs[org]; !ok {
		return fmt.Errorf("registry: unknown org %d", org)
	}
	if prev, dup := r.asOrg[asn]; dup {
		return fmt.Errorf("registry: AS%d already bound to org %d", asn, prev)
	}
	r.asOrg[asn] = org
	return nil
}

// MarkTransit flags an AS as a transit provider, mirroring CAIDA AS Rank's
// classification used for the Table 1 commentary.
func (r *Registry) MarkTransit(asn ASN) { r.transit[asn] = true }

// IsTransit reports whether the AS was marked as transit.
func (r *Registry) IsTransit(asn ASN) bool { return r.transit[asn] }

// Allocate delegates a fresh prefix of the given length to (org, asn) from
// the org's RIR pools. It fails when every pool of that RIR is exhausted.
func (r *Registry) Allocate(org OrgID, asn ASN, bits uint8) (ipx.Prefix, error) {
	if r.frozen {
		panic("registry: Allocate after Freeze")
	}
	o, ok := r.orgs[org]
	if !ok {
		return ipx.Prefix{}, fmt.Errorf("registry: unknown org %d", org)
	}
	for _, alloc := range r.pools[o.RIR] {
		if p, ok := alloc.Alloc(bits); ok {
			r.allocs = append(r.allocs, Allocation{Prefix: p, ASN: asn, Org: org, RIR: o.RIR})
			return p, nil
		}
	}
	return ipx.Prefix{}, fmt.Errorf("registry: %v pools exhausted for /%d", o.RIR, bits)
}

// Freeze builds the whois index over the allocations, sorted by base. No
// mutation is allowed afterwards; overlapping allocations are an error.
func (r *Registry) Freeze() error {
	if r.frozen {
		return nil
	}
	allocs := r.Allocations()
	los := make([]ipx.Addr, len(allocs))
	his := make([]ipx.Addr, len(allocs))
	for i, a := range allocs {
		los[i], his[i] = a.Prefix.First(), a.Prefix.Last()
	}
	idx, err := ipx.NewFlatIndex(los, his, allocs)
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	r.whois, r.frozen = idx, true
	return nil
}

// Whois resolves an address to its allocation and owning org, the query the
// paper sends to Team Cymru to learn each ground-truth address's RIR.
func (r *Registry) Whois(a ipx.Addr) (Allocation, Org, bool) {
	if !r.frozen {
		panic("registry: Whois before Freeze")
	}
	alloc, ok := r.whois.Lookup(a)
	if !ok {
		return Allocation{}, Org{}, false
	}
	return alloc, r.orgs[alloc.Org], true
}

// RIROf returns the registry serving an address, or geo.RIRUnknown for
// unallocated space.
func (r *Registry) RIROf(a ipx.Addr) geo.RIR {
	alloc, _, ok := r.Whois(a)
	if !ok {
		return geo.RIRUnknown
	}
	return alloc.RIR
}

// Org returns a registered organization by ID.
func (r *Registry) Org(id OrgID) (Org, bool) {
	o, ok := r.orgs[id]
	return o, ok
}

// Allocations returns every delegation in ascending prefix order. The
// vendor builders iterate this as their registration-data feed.
func (r *Registry) Allocations() []Allocation {
	out := make([]Allocation, len(r.allocs))
	copy(out, r.allocs)
	sort.Slice(out, func(i, j int) bool { return out[i].Prefix.Base < out[j].Prefix.Base })
	return out
}
