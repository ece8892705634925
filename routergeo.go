// Package routergeo is the public face of a full reproduction of
// "A Look at Router Geolocation in Public and Commercial Databases"
// (Gharaibeh et al., IMC 2017).
//
// A Study bundles everything the paper's evaluation needs: a synthetic
// Internet with exact location truth, an Ark-style topology sweep, a RIPE
// Atlas-style probe fleet, the DNS-based and RTT-proximity ground-truth
// datasets, and four simulated geolocation databases whose error models
// mirror the commercial products the paper measured. On top of it the
// package exposes the paper's methodology: coverage, consistency,
// accuracy against ground truth, regional breakdowns and the
// recommendation synthesis.
//
//	study, err := routergeo.New(routergeo.Quick())
//	loc, ok := study.Lookup("NetAcuity", "63.4.12.9")
//	acc := study.Accuracy("NetAcuity")
//
// The heavyweight pieces (world construction, measurement simulation,
// database building) run once inside New; everything else is cheap.
package routergeo

import (
	"context"
	"fmt"
	"io"

	"routergeo/internal/core"
	"routergeo/internal/experiments"
	"routergeo/internal/geo"
	"routergeo/internal/geodb"
	"routergeo/internal/geodb/snapshot"
	"routergeo/internal/groundtruth"
	"routergeo/internal/ipx"
	"routergeo/internal/netsim"
	"routergeo/internal/traceroute"
)

// Option configures New.
type Option func(*experiments.Config)

// WithSeed sets the world seed. The Ark sweep, the PTR zone, both Atlas
// fleets, the registration feed, the vendor databases and the churn
// timeline keep their fixed seeds; they change only as the world they
// read does.
func WithSeed(seed int64) Option {
	return func(c *experiments.Config) { c.World.Seed = seed }
}

// WithScale sets the number of autonomous systems in the world.
func WithScale(ases int) Option {
	return func(c *experiments.Config) { c.World.ASes = ases }
}

// Quick shrinks the world and fleets so a Study builds in well under a
// second — the right choice for examples and tests.
func Quick() Option {
	return func(c *experiments.Config) {
		c.World.ASes = 250
		c.Atlas.Probes = 600
		c.OneMsProbes = 900
	}
}

// Study is a fully built experimental environment.
type Study struct {
	env *experiments.Env
}

// New builds a Study. With default options this takes a few seconds on one
// core; use Quick for interactive work.
func New(opts ...Option) (*Study, error) {
	cfg := experiments.DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	env, err := experiments.NewEnv(context.Background(), cfg)
	if err != nil {
		return nil, err
	}
	return &Study{env: env}, nil
}

// Location is one geolocation answer (or a truth record).
type Location struct {
	Country    string  // ISO2
	City       string  // "" below city resolution
	Lat, Lon   float64 // 0,0 when no coordinates
	Resolution string  // "country" or "city"
	BlockBits  uint8   // granularity of the record that answered
}

func locationFromRecord(r geodb.Record) Location {
	return Location{
		Country:    r.Country,
		City:       r.City,
		Lat:        r.Coord.Lat,
		Lon:        r.Coord.Lon,
		Resolution: r.Resolution.String(),
		BlockBits:  r.BlockBits,
	}
}

// Databases lists the four simulated products in the paper's order.
func (s *Study) Databases() []string {
	out := make([]string, len(s.env.DBs))
	for i, db := range s.env.DBs {
		out[i] = db.Name()
	}
	return out
}

// Lookup queries one database for a dotted-quad address.
func (s *Study) Lookup(db, ip string) (Location, bool) {
	addr, err := ipx.ParseAddr(ip)
	if err != nil {
		return Location{}, false
	}
	rec, ok := s.env.DB(db).Lookup(addr)
	if !ok {
		return Location{}, false
	}
	return locationFromRecord(rec), true
}

// BatchResult is one address's answer from LookupBatch, mirroring the
// per-entry semantics of the HTTP API's POST /v2/lookup: a malformed
// address carries its error without failing the rest of the batch.
type BatchResult struct {
	IP       string
	Location Location
	Found    bool
	Err      string // parse error for this entry, "" when well-formed
}

// LookupBatch queries one database for many addresses at once — the
// facade twin of the batch /v2/lookup endpoint, sized for sweeps like
// the paper's 1.64M-address Ark set. Results preserve input order.
func (s *Study) LookupBatch(db string, ips []string) []BatchResult {
	provider := s.env.DB(db)
	out := make([]BatchResult, len(ips))
	for i, ip := range ips {
		addr, err := ipx.ParseAddr(ip)
		if err != nil {
			out[i] = BatchResult{IP: ip, Err: err.Error()}
			continue
		}
		out[i] = BatchResult{IP: addr.String()}
		if rec, ok := provider.Lookup(addr); ok {
			out[i].Location, out[i].Found = locationFromRecord(rec), true
		}
	}
	return out
}

// TrueLocation returns the simulator's exact truth for a router interface
// address; ok is false for addresses with no interface.
func (s *Study) TrueLocation(ip string) (Location, bool) {
	addr, err := ipx.ParseAddr(ip)
	if err != nil {
		return Location{}, false
	}
	id, ok := s.env.W.IfaceByAddr(addr)
	if !ok {
		return Location{}, false
	}
	city := s.env.W.CityOf(id)
	coord := s.env.W.CoordOf(id)
	return Location{
		Country: city.Country, City: city.Name,
		Lat: coord.Lat, Lon: coord.Lon, Resolution: "city", BlockBits: 32,
	}, true
}

// TruthEntry is one ground-truth address with its claimed location.
type TruthEntry struct {
	IP       string
	Country  string
	Lat, Lon float64
	Method   string // "DNS-based" or "RTT-proximity"
	RIR      string
}

// GroundTruth returns the merged ground-truth dataset (DNS wins on
// overlap), ordered by address.
func (s *Study) GroundTruth() []TruthEntry {
	out := make([]TruthEntry, 0, s.env.GT.Len())
	for _, e := range s.env.GT.Entries {
		out = append(out, TruthEntry{
			IP:      e.Addr.String(),
			Country: e.Country,
			Lat:     e.Coord.Lat,
			Lon:     e.Coord.Lon,
			Method:  e.Method.String(),
			RIR:     s.env.W.Reg.RIROf(e.Addr).String(),
		})
	}
	return out
}

// ArkAddresses returns the Ark-topo-router address set as dotted quads.
func (s *Study) ArkAddresses() []string {
	out := make([]string, len(s.env.ArkAddrs))
	for i, a := range s.env.ArkAddrs {
		out[i] = a.String()
	}
	return out
}

// AccuracySummary is the paper's headline accuracy metrics for one
// database over the ground truth.
type AccuracySummary struct {
	Targets         int
	CountryCoverage float64
	CountryAccuracy float64
	CityCoverage    float64
	CityAccuracy    float64 // within the 40 km city range
	MedianErrorKm   float64 // over city-level answers
}

// Accuracy evaluates one database against the ground truth.
func (s *Study) Accuracy(db string) AccuracySummary {
	return summarize(core.MeasureAccuracy(context.Background(), s.env.DB(db), s.env.Targets))
}

// AccuracyByRegion evaluates one database per RIR region.
func (s *Study) AccuracyByRegion(db string) map[string]AccuracySummary {
	out := map[string]AccuracySummary{}
	for rir, a := range core.AccuracyByRIR(context.Background(), s.env.DB(db), s.env.Targets) {
		out[rir.String()] = summarize(a)
	}
	return out
}

// summarize reads the headline metrics off one core accuracy result.
func summarize(a core.Accuracy) AccuracySummary {
	out := AccuracySummary{
		Targets:         a.Total,
		CountryCoverage: a.CountryCoverage(),
		CountryAccuracy: a.CountryAccuracy(),
		CityCoverage:    a.CityCoverage(),
		CityAccuracy:    a.CityAccuracy(),
	}
	if a.ErrorCDF.N() > 0 {
		out.MedianErrorKm = a.ErrorCDF.Median()
	}
	return out
}

// Disagreement compares two databases' city answers over the Ark set: the
// fraction of commonly answered addresses placed more than 40 km apart
// (Figure 1's headline number).
func (s *Study) Disagreement(dbA, dbB string) (over40Frac float64, compared int) {
	p := core.MeasurePairwiseCity(context.Background(), s.env.DB(dbA), s.env.DB(dbB), s.env.ArkAddrs)
	return p.DisagreeOver40Pct(), p.Both
}

// Recommendations returns the §6-style guidance derived from this study's
// measurements.
func (s *Study) Recommendations() []string {
	results := map[string]core.Accuracy{}
	perRIR := map[string]map[geo.RIR]core.Accuracy{}
	for _, db := range s.env.DBs {
		results[db.Name()] = core.MeasureAccuracy(context.Background(), db, s.env.Targets)
		perRIR[db.Name()] = core.AccuracyByRIR(context.Background(), db, s.env.Targets)
	}
	var out []string
	for _, r := range core.Recommend(results, perRIR) {
		out = append(out, r.Text)
	}
	return out
}

// RunExperiment executes one named paper artifact (see ExperimentIDs).
func (s *Study) RunExperiment(id string, w io.Writer) error {
	e, ok := experiments.ByID(id)
	if !ok {
		return fmt.Errorf("routergeo: unknown experiment %q", id)
	}
	return experiments.RunOne(context.Background(), e, w, s.env)
}

// ExperimentIDs lists the reproducible artifacts in presentation order.
func ExperimentIDs() []string {
	var out []string
	for _, e := range experiments.All() {
		out = append(out, e.ID)
	}
	return out
}

// Path is one simulated traceroute: the source description and the hop
// addresses in order.
type Path struct {
	From string
	To   string
	Hops []string
}

// SamplePaths runs n traceroutes between random ground-truth world routers
// and returns the revealed hop addresses — fodder for path-analysis
// examples such as detour detection.
func (s *Study) SamplePaths(n int, seed int64) []Path {
	w := s.env.W
	rng := newRand(seed)
	var out []Path
	var ifaces []netsim.IfaceID
	for len(out) < n {
		src := netsim.RouterID(rng.Intn(w.NumRouters()))
		dst := netsim.RouterID(rng.Intn(w.NumRouters()))
		if src == dst {
			continue
		}
		tree := traceroute.BuildTree(w, src)
		if !tree.Reachable(dst) {
			continue
		}
		ifaces = tree.Trace(dst, ifaces[:0])
		p := Path{
			From: describeRouter(w, src),
			To:   describeRouter(w, dst),
			Hops: make([]string, len(ifaces)),
		}
		for i, id := range ifaces {
			p.Hops[i] = w.Interfaces[id].Addr.String()
		}
		out = append(out, p)
	}
	return out
}

// ASInfo describes one operator in the world.
type ASInfo struct {
	ASN         uint32
	Name        string
	Domain      string
	HomeCountry string
	Transit     bool
	Interfaces  []string
}

// Operators returns the world's ASes; withInterfaces controls whether the
// (potentially long) interface address lists are populated.
func (s *Study) Operators(withInterfaces bool) []ASInfo {
	w := s.env.W
	out := make([]ASInfo, 0, w.NumASes())
	byAS := map[int][]string{}
	if withInterfaces {
		for i := range w.Interfaces {
			r := w.Interfaces[i].Router
			byAS[w.Routers[r].AS] = append(byAS[w.Routers[r].AS], w.Interfaces[i].Addr.String())
		}
	}
	for i := range w.ASes {
		as := &w.ASes[i]
		out = append(out, ASInfo{
			ASN:         uint32(as.ASN),
			Name:        as.Name,
			Domain:      as.Domain,
			HomeCountry: as.HomeCountry,
			Transit:     as.Transit,
			Interfaces:  byAS[i],
		})
	}
	return out
}

// ExportDatabases writes the four databases to dir as RGSP snapshots
// named like "netacuity.rgsnap", stamped with the seed's build epoch, and
// returns the paths. They are the same bytes `routergeo -dbdir` and
// `geosnap -build` write for the same seed.
func (s *Study) ExportDatabases(dir string) ([]string, error) {
	meta := snapshot.Meta{BuildEpoch: experiments.SnapshotEpoch(s.env.Cfg.World.Seed), SourceFormat: "study"}
	return experiments.WriteSnapshots(dir, s.env.DBs, meta)
}

// GroundTruthSizes returns the sizes of the constituent datasets:
// DNS-based, RTT-proximity, and the merged set.
func (s *Study) GroundTruthSizes() (dns, rtt, merged int) {
	return s.env.DNS.Len(), s.env.RTTDS.Len(), s.env.GT.Len()
}

// Stats summarizes the world's scale.
type Stats struct {
	ASes, Routers, Interfaces, Links int
	ArkAddresses                     int
	GroundTruth                      int
}

// WorldStats reports the study's scale.
func (s *Study) WorldStats() Stats {
	return Stats{
		ASes:         s.env.W.NumASes(),
		Routers:      s.env.W.NumRouters(),
		Interfaces:   s.env.W.NumInterfaces(),
		Links:        s.env.W.NumLinks(),
		ArkAddresses: len(s.env.ArkAddrs),
		GroundTruth:  s.env.GT.Len(),
	}
}

// MethodOf reports which ground-truth method located an address ("" when
// the address is not in the ground truth).
func (s *Study) MethodOf(ip string) string {
	addr, err := ipx.ParseAddr(ip)
	if err != nil {
		return ""
	}
	e, ok := s.env.GT.ByAddr(addr)
	if !ok {
		return ""
	}
	return e.Method.String()
}

func describeRouter(w *netsim.World, r netsim.RouterID) string {
	as := w.ASOfRouter(r)
	city := as.PoPs[w.Routers[r].PoP].City
	return fmt.Sprintf("AS%d %s/%s", as.ASN, city.Country, city.Name)
}

// compile-time check that the groundtruth methods stay exposed through the
// facade names used above.
var _ = groundtruth.DNS
