package netsim

import (
	"fmt"
	"math/rand"

	"routergeo/internal/gazetteer"
	"routergeo/internal/geo"
	"routergeo/internal/ipx"
	"routergeo/internal/registry"
	"routergeo/internal/rtt"
)

// Build generates a world from cfg. Generation is deterministic for a
// given cfg (including cfg.Seed). A zero cfg.ASes builds DefaultConfig's
// count. It returns an error only when the registry pools are exhausted,
// which indicates the configuration asks for more world than the
// synthetic IPv4 plan can number.
func Build(cfg Config) (*World, error) {
	if cfg.ASes == 0 {
		cfg.ASes = DefaultConfig().ASes
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	b := &builder{
		ases: cfg.ASes,
		rng:  rng,
		w: &World{
			Gaz:    gazetteer.New(),
			Reg:    registry.New(nil),
			blocks: make(map[ipx.Addr][]IfaceID),
		},
		linkSeen: make(map[[2]RouterID]bool),
	}

	if err := b.createASes(); err != nil {
		return nil, err
	}
	b.createRouters()
	b.w.idx = newRouterIndex(b.w)
	if err := b.createLinks(); err != nil {
		return nil, err
	}
	b.buildAdjacency()
	if err := b.w.Reg.Freeze(); err != nil {
		return nil, err
	}
	return b.w, nil
}

type builder struct {
	ases     int
	rng      *rand.Rand
	w        *World
	addr     []*addrAssigner // parallel to w.ASes
	linkSeen map[[2]RouterID]bool

	// cityDist memoizes closestPoPRouters' centre-to-centre distances,
	// n×n over gazetteer.CityID, negative until first use.
	cityDist []float64
}

// createASes instantiates the seed operators plus synthetic ASes, chooses
// their PoP cities, and registers their organizations.
func (b *builder) createASes() error {
	for _, s := range defaultSeedASes() {
		if err := b.addSeedAS(s); err != nil {
			return err
		}
	}
	for i := len(b.w.ASes); i < b.ases; i++ {
		if err := b.addSyntheticAS(i); err != nil {
			return err
		}
	}
	return nil
}

func (b *builder) addSeedAS(s SeedAS) error {
	org := b.w.Reg.RegisterOrg(s.Name, s.HQCountry, s.HQCity, s.RIR)
	asn := registry.ASN(s.ASN)
	if err := b.w.Reg.BindAS(asn, org); err != nil {
		return err
	}
	if s.Transit {
		b.w.Reg.MarkTransit(asn)
	}
	as := AS{
		ASN: asn, Org: org, Name: s.Name, Domain: s.Domain, RIR: s.RIR,
		HomeCountry: s.HQCountry, HomeCity: s.HQCity,
		Transit: s.Transit, Multinational: s.ForeignShare > 0,
		HintScheme: s.HintScheme, HintCoverage: s.HintCoverage,
		RoutersPerPoPMax: s.PoPRouters,
	}
	foreign := int(float64(s.PoPs)*s.ForeignShare + 0.5)
	b.pickPoPs(&as, s.PoPs-foreign, foreign, s.ForeignRIRBias)
	b.w.ASes = append(b.w.ASes, as)
	b.addr = append(b.addr, newAddrAssigner(b.w, len(b.w.ASes)-1))
	return nil
}

func (b *builder) addSyntheticAS(i int) error {
	rir := geo.SampleRIR(b.rng, rirWeights)
	home := b.w.Gaz.SampleCountry(b.rng, rir)
	transit := b.rng.Float64() < transitFraction
	multinational := transit && b.rng.Float64() < multinationalFraction[rir]

	asn := registry.ASN(64512 + i)
	name := fmt.Sprintf("AS%d Networks", asn)
	domain := fmt.Sprintf("as%d.net", asn)
	hqCity := b.w.Gaz.SampleCity(b.rng, home.ISO2)

	org := b.w.Reg.RegisterOrg(name, home.ISO2, hqCity.Name, rir)
	if err := b.w.Reg.BindAS(asn, org); err != nil {
		return err
	}
	if transit {
		b.w.Reg.MarkTransit(asn)
	}

	as := AS{
		ASN: asn, Org: org, Name: name, Domain: domain, RIR: rir,
		HomeCountry: home.ISO2, HomeCity: hqCity.Name,
		Transit: transit, Multinational: multinational,
		HintScheme:   "generic",
		HintCoverage: genericHintCoverage * (0.5 + b.rng.Float64()),
	}

	var pops, foreign int
	if transit {
		pops = transitPoPsMin + b.rng.Intn(transitPoPsMax-transitPoPsMin+1)
		if multinational {
			foreign = int(float64(pops)*foreignShare + 0.5)
		}
	} else {
		pops = 1 + b.rng.Intn(stubPoPsMax)
	}
	// The HQ city is always the first PoP.
	as.PoPs = append(as.PoPs, PoP{City: hqCity})
	b.pickPoPsFrom(&as, pops-foreign-1, foreign, nil)
	b.w.ASes = append(b.w.ASes, as)
	b.addr = append(b.addr, newAddrAssigner(b.w, len(b.w.ASes)-1))
	return nil
}

// pickPoPs fills an AS's PoP list: the HQ city first, then domestic-1 more
// home-country cities, then foreign cities per the RIR bias.
func (b *builder) pickPoPs(as *AS, domestic, foreign int, bias map[geo.RIR]float64) {
	hq, ok := b.w.Gaz.City(as.HomeCountry, as.HomeCity)
	if !ok {
		hq = b.w.Gaz.SampleCity(b.rng, as.HomeCountry)
		as.HomeCity = hq.Name
	}
	as.PoPs = append(as.PoPs, PoP{City: hq})
	b.pickPoPsFrom(as, domestic-1, foreign, bias)
}

// pickPoPsFrom appends domestic home-country PoPs and foreign PoPs to an
// AS that already has its HQ PoP. Duplicate cities are skipped, so small
// countries can yield fewer PoPs than requested.
func (b *builder) pickPoPsFrom(as *AS, domestic, foreign int, bias map[geo.RIR]float64) {
	have := make([]bool, gazetteer.NumCities()+1)
	for _, p := range as.PoPs {
		have[p.City.ID] = true
	}
	add := func(c gazetteer.City) bool {
		if have[c.ID] {
			return false
		}
		have[c.ID] = true
		as.PoPs = append(as.PoPs, PoP{City: c})
		return true
	}
	for n, tries := 0, 0; n < domestic && tries < domestic*8+16; tries++ {
		if add(b.w.Gaz.SampleCity(b.rng, as.HomeCountry)) {
			n++
		}
	}
	if bias == nil {
		bias = map[geo.RIR]float64{geo.RIPENCC: 0.45, geo.ARIN: 0.2, geo.APNIC: 0.2, geo.LACNIC: 0.1, geo.AFRINIC: 0.05}
	}
	for n, tries := 0, 0; n < foreign && tries < foreign*8+16; tries++ {
		rir := geo.SampleRIR(b.rng, bias)
		country := b.w.Gaz.SampleCountry(b.rng, rir)
		if country.ISO2 == as.HomeCountry {
			continue
		}
		// Foreign operators rarely build PoPs in closed markets: Russian and
		// Chinese router space overwhelmingly belongs to domestic carriers,
		// which is why the paper's Figure 4 shows >94% country accuracy
		// there while open Western markets (FR, NL, DE) are full of
		// foreign-registered infrastructure and score far lower.
		if (country.ISO2 == "RU" || country.ISO2 == "CN") && b.rng.Float64() < 0.95 {
			continue
		}
		if add(b.w.Gaz.SampleCity(b.rng, country.ISO2)) {
			n++
		}
	}
}

// createRouters instantiates routers at every PoP with jittered positions.
func (b *builder) createRouters() {
	for ai := range b.w.ASes {
		as := &b.w.ASes[ai]
		maxR := routersPerStubPoPMax
		minR := 2 // access chains need depth below the PoP core
		if as.Transit {
			maxR = routersPerTransitPoPMax
		}
		if as.RoutersPerPoPMax > 0 {
			maxR = as.RoutersPerPoPMax
		}
		for pi := range as.PoPs {
			n := minR + b.rng.Intn(maxR-minR+1)
			// A PoP is one facility somewhere in the city; its routers sit
			// within a few hundred metres of each other. Keeping them
			// co-located matters: chained access hops must stay within the
			// sub-millisecond budget of the RTT-proximity method.
			site := as.PoPs[pi].City.Coord.Offset(b.rng.Float64()*CityJitterKm, b.rng.Float64()*360)
			for k := 0; k < n; k++ {
				id := RouterID(len(b.w.Routers))
				b.w.Routers = append(b.w.Routers, Router{
					ID: id, AS: ai, PoP: pi,
					Coord: site.Offset(b.rng.Float64()*0.4, b.rng.Float64()*360),
				})
				as.PoPs[pi].Routers = append(as.PoPs[pi].Routers, id)
			}
		}
	}
}

// createLinks wires the world together: intra-PoP stars, intra-AS rings
// with chords, a connected transit backbone, stub-to-transit uplinks, and
// geographically local transit peering.
func (b *builder) createLinks() error {
	b.newCityDist()
	// Intra-PoP and intra-AS.
	for ai := range b.w.ASes {
		as := &b.w.ASes[ai]
		cores := make([]RouterID, len(as.PoPs))
		for pi := range as.PoPs {
			rs := as.PoPs[pi].Routers
			cores[pi] = rs[0]
			if !as.Transit {
				// Access networks have aggregation depth: a chain from the
				// PoP core down to the access edge. Probes attach at the
				// leaf, so their first hops climb through the metro — the
				// topology behind the paper's observation that >80% of
				// RTT-proximate addresses are ≥2 hops from their probe.
				// Links are created leaf-first so the access /24's first
				// address (its traceroute terminus) sits on the leaf: probes
				// toward access space then traverse the whole chain, which
				// is what fills the real Ark dataset with aggregation-layer
				// interfaces.
				for k := len(rs) - 1; k >= 1; k-- {
					if err := b.link(rs[k], rs[k-1]); err != nil {
						return err
					}
				}
				continue
			}
			for _, r := range rs[1:] {
				if err := b.link(rs[0], r); err != nil {
					return err
				}
			}
			// Partial mesh inside larger PoPs: real PoPs dual-home their
			// aggregation routers, which is also what pushes the
			// interface-per-router ratio toward the paper's ~3.4.
			for i := 1; i < len(rs); i++ {
				for j := i + 1; j < len(rs); j++ {
					if b.rng.Float64() < 0.5 {
						if err := b.link(rs[i], rs[j]); err != nil {
							return err
						}
					}
				}
			}
		}
		for pi := 1; pi < len(cores); pi++ {
			if err := b.link(cores[pi-1], cores[pi]); err != nil {
				return err
			}
		}
		if len(cores) > 2 {
			if err := b.link(cores[len(cores)-1], cores[0]); err != nil {
				return err
			}
			for i := 0; i < len(cores); i++ {
				if b.rng.Float64() < extraIntraASLinkProb {
					j := b.rng.Intn(len(cores))
					if j != i {
						if err := b.link(cores[i], cores[j]); err != nil {
							return err
						}
					}
				}
			}
		}
	}

	tx := newTransitIndex(b.w, peeringRadiusKm)
	transit := tx.transit
	if len(transit) == 0 {
		return fmt.Errorf("netsim: no transit ASes; cannot build a connected world")
	}

	// Transit backbone: a random tree guarantees connectivity.
	for i := 1; i < len(transit); i++ {
		j := b.rng.Intn(i)
		if err := b.linkASes(transit[i], transit[j]); err != nil {
			return err
		}
	}
	// Local peering: transit pairs with PoPs in the same metro. Only the
	// pairs the index lists can pass the radius test; the others would
	// fail it without drawing.
	var peers []int
	for i := range transit {
		peers = tx.peers(b.w, i, peers[:0])
		for _, j := range peers {
			ra, rb, d := b.closestPoPRouters(transit[i], transit[j])
			if d <= peeringRadiusKm && b.rng.Float64() < peeringProb {
				if err := b.link(ra, rb); err != nil {
					return err
				}
			}
		}
	}

	// Stub uplinks. Provider choice mixes geography with market share:
	// half the uplinks go to the geographically nearest transit PoP, the
	// rest to a size-weighted draw over the transit tier (large operators
	// like the seeded cogent/ntt carry most customers — which is also what
	// makes their per-customer interfaces dominate an Ark sweep, as the
	// paper's DNS ground truth does).
	weights := make([]int, len(transit))
	totalWeight := 0
	for i, ti := range transit {
		n := len(b.w.ASes[ti].PoPs)
		weights[i] = n * n
		if b.w.ASes[ti].RoutersPerPoPMax > 0 {
			// Seeded tier-1-style operators carry an outsized customer base.
			weights[i] *= 4
		}
		totalWeight += weights[i]
	}
	pickProvider := func(coord geo.Coordinate) RouterID {
		if b.rng.Float64() < 0.5 {
			return tx.nearestRouter(b.w, b.rng, coord)
		}
		x := b.rng.Intn(totalWeight)
		for i, ti := range transit {
			x -= weights[i]
			if x < 0 {
				return b.nearestRouterInAS(ti, coord)
			}
		}
		return b.nearestRouterInAS(transit[len(transit)-1], coord)
	}
	for ai := range b.w.ASes {
		as := &b.w.ASes[ai]
		if as.Transit {
			continue
		}
		core := as.PoPs[0].Routers[0]
		first := pickProvider(b.w.Routers[core].Coord)
		if err := b.link(core, first); err != nil {
			return err
		}
		if b.rng.Float64() < 0.5 {
			if r := pickProvider(b.w.Routers[core].Coord); r != first {
				if err := b.link(core, r); err != nil {
					return err
				}
			}
		}
		// Multi-PoP stubs uplink their secondary PoPs too.
		for pi := 1; pi < len(as.PoPs); pi++ {
			c := as.PoPs[pi].Routers[0]
			if err := b.link(c, pickProvider(b.w.Routers[c].Coord)); err != nil {
				return err
			}
		}
	}
	return nil
}

// linkASes links two ASes at their closest PoP pair.
func (b *builder) linkASes(ai, aj int) error {
	ra, rb, _ := b.closestPoPRouters(ai, aj)
	return b.link(ra, rb)
}

// newCityDist sizes the distance memo, every entry unset.
func (b *builder) newCityDist() {
	n := gazetteer.NumCities() + 1
	b.cityDist = make([]float64, n*n)
	for i := range b.cityDist {
		b.cityDist[i] = -1
	}
}

// closestPoPRouters returns the core-router pair minimizing the distance
// between two ASes' PoPs.
func (b *builder) closestPoPRouters(ai, aj int) (RouterID, RouterID, float64) {
	A, B := &b.w.ASes[ai], &b.w.ASes[aj]
	n := gazetteer.NumCities() + 1
	var ra, rb RouterID
	best := -1.0
	for i := range A.PoPs {
		pa := &A.PoPs[i]
		row := int(pa.City.ID) * n
		for j := range B.PoPs {
			pb := &B.PoPs[j]
			k := row + int(pb.City.ID)
			d := b.cityDist[k]
			if d < 0 {
				d = pa.City.Coord.DistanceKm(pb.City.Coord)
				b.cityDist[k] = d
			}
			if best < 0 || d < best {
				best = d
				ra, rb = pa.Routers[0], pb.Routers[0]
			}
		}
	}
	return ra, rb, best
}

// nearestRouterInAS returns a router in the AS's PoP closest to p.
// Customer links terminate on a random router of the PoP, not always the
// core: real PoPs land customers on edge routers, and the resulting path
// diversity is what lets an Ark-style sweep observe a transit operator's
// many per-customer interfaces (the bulk of the paper's DNS ground truth).
func (b *builder) nearestRouterInAS(ai int, p geo.Coordinate) RouterID {
	as := &b.w.ASes[ai]
	rs := as.PoPs[nearestPoP(as, p)].Routers
	return rs[b.rng.Intn(len(rs))]
}

// link installs an undirected link between two routers, numbering one new
// interface on each side from its own AS's address plan. Duplicate links
// and self-links are silently skipped.
func (b *builder) link(x, y RouterID) error {
	if x == y {
		return nil
	}
	key := [2]RouterID{x, y}
	if x > y {
		key = [2]RouterID{y, x}
	}
	if b.linkSeen[key] {
		return nil
	}
	b.linkSeen[key] = true

	rx, ry := &b.w.Routers[x], &b.w.Routers[y]
	ax, err := b.addr[rx.AS].next(rx.PoP, b.rng)
	if err != nil {
		return err
	}
	ay, err := b.addr[ry.AS].next(ry.PoP, b.rng)
	if err != nil {
		return err
	}

	linkIdx := int32(len(b.w.Links))
	ifx := b.newIface(ax, x, linkIdx)
	ify := b.newIface(ay, y, linkIdx)

	oneWay := rtt.LinkOneWayMs(rx.Coord.DistanceKm(ry.Coord))
	b.w.Links = append(b.w.Links, Link{A: x, B: y, AIface: ifx, BIface: ify, OneWayMs: oneWay})
	return nil
}

func (b *builder) newIface(a ipx.Addr, r RouterID, link int32) IfaceID {
	id := IfaceID(len(b.w.Interfaces))
	b.w.Interfaces = append(b.w.Interfaces, Interface{ID: id, Addr: a, Router: r, Link: link})
	b.w.Routers[r].Ifaces = append(b.w.Routers[r].Ifaces, id)
	base := a.Slash24().Base
	b.w.blocks[base] = append(b.w.blocks[base], id)
	return id
}

func (b *builder) buildAdjacency() {
	b.w.adj = make([][]Hop, len(b.w.Routers))
	for _, l := range b.w.Links {
		b.w.adj[l.A] = append(b.w.adj[l.A], Hop{Peer: l.B, PeerIface: l.BIface, OneWayMs: l.OneWayMs})
		b.w.adj[l.B] = append(b.w.adj[l.B], Hop{Peer: l.A, PeerIface: l.AIface, OneWayMs: l.OneWayMs})
	}
}

// addrAssigner numbers an AS's interfaces. Each PoP draws from its own
// current /24; with probability sharedBlockProb an address comes from the
// AS's shared /24 instead, which therefore accumulates interfaces from
// many cities — the non-co-located blocks behind §5.2.3. Fresh /24s are
// carved from registry delegations requested on demand.
type addrAssigner struct {
	w      *World
	asIdx  int
	super  *ipx.Allocator
	perPoP []*blockCursor // by PoP index
	shared *blockCursor
}

type blockCursor struct {
	prefix ipx.Prefix
	next   ipx.Addr
}

func newAddrAssigner(w *World, asIdx int) *addrAssigner {
	return &addrAssigner{w: w, asIdx: asIdx, perPoP: make([]*blockCursor, len(w.ASes[asIdx].PoPs))}
}

func (a *addrAssigner) next(pop int, rng *rand.Rand) (ipx.Addr, error) {
	cur := a.perPoP[pop]
	useShared := rng.Float64() < sharedBlockProb
	if useShared {
		if a.shared == nil || a.shared.exhausted() {
			blk, err := a.newSlash24()
			if err != nil {
				return 0, err
			}
			a.shared = blk
		}
		return a.shared.take(), nil
	}
	if cur == nil || cur.exhausted() {
		blk, err := a.newSlash24()
		if err != nil {
			return 0, err
		}
		a.perPoP[pop] = blk
		cur = blk
	}
	return cur.take(), nil
}

// newSlash24 carves the next /24 from the AS's current registry
// delegation, requesting a fresh delegation when exhausted. Transit
// operators receive /19s, stubs /22s, approximating real allocation sizes.
func (a *addrAssigner) newSlash24() (*blockCursor, error) {
	if a.super != nil {
		if p, ok := a.super.Alloc(24); ok {
			return &blockCursor{prefix: p, next: p.Base + 1}, nil
		}
	}
	as := &a.w.ASes[a.asIdx]
	bits := uint8(22)
	if as.Transit {
		bits = 19
	}
	p, err := a.w.Reg.Allocate(as.Org, as.ASN, bits)
	if err != nil {
		return nil, err
	}
	as.Prefixes = append(as.Prefixes, p)
	a.super = ipx.NewAllocator(p)
	q, ok := a.super.Alloc(24)
	if !ok {
		return nil, fmt.Errorf("netsim: fresh delegation %v yielded no /24", p)
	}
	return &blockCursor{prefix: q, next: q.Base + 1}, nil
}

// exhausted reports whether the cursor has used .1 through .254; .0 and
// .255 are never assigned.
func (c *blockCursor) exhausted() bool { return c.next > c.prefix.Base+254 }

func (c *blockCursor) take() ipx.Addr {
	a := c.next
	c.next++
	return a
}
