// Package experiments wires the full reproduction together: it builds one
// Env (world, Ark sweep, rDNS zone, Atlas fleet, ground truth, the four
// vendor databases) and exposes one runner per table, figure and in-text
// analysis of the paper's evaluation. Each runner prints the rows or
// series the paper reports, at this reproduction's scale.
package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"routergeo/internal/ark"
	"routergeo/internal/atlas"
	"routergeo/internal/core"
	"routergeo/internal/geodb"
	"routergeo/internal/groundtruth"
	"routergeo/internal/hints"
	"routergeo/internal/ipx"
	"routergeo/internal/netsim"
	"routergeo/internal/obs"
	"routergeo/internal/par"
	"routergeo/internal/rdns"
	"routergeo/internal/vendors"
)

// Config assembles the sub-configurations of the pipeline: the seeds and
// sizes a caller varies, and the RTT rules. Each component's calibration
// is constants in its own package.
type Config struct {
	World netsim.Config
	Ark   ark.Config
	RDNS  rdns.Config
	Atlas atlas.Config
	RTT   groundtruth.RTTConfig
	// OneMsProbes sizes the second, later fleet used to synthesize the
	// Giotsas-style 1 ms comparison dataset (§3.1/§3.2).
	OneMsProbes int
	// EvolutionSeed drives the churn timeline shared by §3's analyses.
	EvolutionSeed int64
}

// DefaultConfig runs the pipeline at the scale DESIGN.md documents.
func DefaultConfig() Config {
	return Config{
		World:         netsim.DefaultConfig(),
		Ark:           ark.DefaultConfig(),
		RDNS:          rdns.DefaultConfig(),
		Atlas:         atlas.DefaultConfig(),
		RTT:           groundtruth.DefaultRTTConfig(),
		OneMsProbes:   2600,
		EvolutionSeed: 97,
	}
}

// Env is the fully built experimental environment. Build it once with
// NewEnv and run any number of experiments against it.
type Env struct {
	Cfg  Config
	W    *netsim.World
	Coll *ark.Collection
	Dict *hints.Dictionary
	Dec  *hints.Decoder
	Zone *rdns.Zone

	Fleet        *atlas.Fleet
	Measurements []atlas.Measurement

	DNS      *groundtruth.Dataset
	DNSStats groundtruth.DNSStats
	RTTDS    *groundtruth.Dataset
	RTTStats groundtruth.RTTStats
	GT       *groundtruth.Dataset
	Targets  []core.Target

	// Evo is the shared churn timeline; OneMs the +10-month 1 ms dataset.
	Evo   *netsim.Evolution
	OneMs *groundtruth.Dataset

	// Feed is the registration-data input the vendor builds consumed,
	// retained so BuildDBsAt can rebuild the same vendors at a later
	// churn horizon without re-deriving it.
	Feed *vendors.Feed

	// DBs holds the four databases in the paper's presentation order:
	// IP2Location-Lite, MaxMind-GeoLite, MaxMind-Paid, NetAcuity.
	DBs []*geodb.DB

	// ArkAddrs is the Ark-topo-router address list the §5.1 analyses use.
	ArkAddrs []ipx.Addr
}

// DB fetches a database by name; it panics on unknown names, which would
// be a programming error in an experiment.
func (e *Env) DB(name string) *geodb.DB {
	for _, db := range e.DBs {
		if db.Name() == name {
			return db
		}
	}
	panic("experiments: unknown database " + name)
}

// Providers returns the databases as the provider interface slice the
// core methodology consumes.
func (e *Env) Providers() []geodb.Provider {
	out := make([]geodb.Provider, len(e.DBs))
	for i, db := range e.DBs {
		out[i] = db
	}
	return out
}

// NewEnv builds the environment; everything downstream is cheap. The
// context carries the run's trace span (if any); every build stage
// attaches its own child span under "env.build".
func NewEnv(ctx context.Context, cfg Config) (*Env, error) {
	ctx, envSpan := obs.Start(ctx, "env.build")
	defer envSpan.End()

	_, wSpan := obs.Start(ctx, "netsim.build")
	w, err := netsim.Build(cfg.World)
	if err != nil {
		wSpan.End()
		return nil, fmt.Errorf("experiments: build world: %w", err)
	}
	wSpan.SetItems(int64(len(w.Interfaces)))
	wSpan.End()
	e := &Env{Cfg: cfg, W: w}

	_, zSpan := obs.Start(ctx, "rdns.synthesize")
	e.Dict = hints.NewDictionary(w.Gaz)
	e.Dec = hints.NewDecoder(e.Dict)
	e.Zone = rdns.Synthesize(w, e.Dict, cfg.RDNS)
	zSpan.End()

	// Four chains of stages start once the world and the zone exist, and
	// each stage starts as soon as its inputs do: the Ark sweep and the
	// DNS ground truth; each Atlas campaign and its RTT ground truth; the
	// churn timeline and the vendor databases. They run on par.Each,
	// longest first, and one after another at one worker. Each chain
	// owns its RNGs and only reads the world, the zone and the decoder,
	// so no byte depends on the schedule. Their spans all attach under
	// env.build — children append under the parent's lock, so concurrent
	// Starts are safe.
	var (
		oneMsBase *groundtruth.Dataset
		oneMsSpan *obs.Span
		vendorErr error
	)
	chains := []func(){
		func() {
			e.Coll = ark.Collect(ctx, w, cfg.Ark)
			e.DNS, e.DNSStats = groundtruth.BuildDNS(ctx, w, e.Coll, e.Zone, e.Dec)
		},
		func() {
			// The Giotsas-style comparison fleet: larger, later, 1 ms rule.
			// Its measurements are dropped once its ground truth is built.
			_, sp := obs.Start(ctx, "atlas.deploy_1ms")
			fleet2Cfg := cfg.Atlas
			fleet2Cfg.Probes = cfg.OneMsProbes
			fleet2Cfg.Seed = cfg.Atlas.Seed + 1000
			fleet2 := atlas.Deploy(w, fleet2Cfg)
			ms2 := fleet2.RunBuiltins(fleet2Cfg.Seed + 1)
			sp.SetItems(int64(len(ms2)))
			sp.End()
			var oneMsCtx context.Context
			oneMsCtx, oneMsSpan = obs.Start(ctx, "groundtruth.1ms")
			oneMsCfg := groundtruth.RTTConfig{ThresholdMs: 1.0, CentroidKm: cfg.RTT.CentroidKm, NearbyMaxKm: 200}
			oneMsBase, _ = groundtruth.BuildRTT(oneMsCtx, w, fleet2, ms2, oneMsCfg)
			oneMsSpan.End()
		},
		func() {
			_, sp := obs.Start(ctx, "atlas.deploy")
			e.Fleet = atlas.Deploy(w, cfg.Atlas)
			e.Measurements = e.Fleet.RunBuiltins(cfg.Atlas.Seed + 1)
			sp.SetItems(int64(len(e.Measurements)))
			sp.End()
			e.RTTDS, e.RTTStats = groundtruth.BuildRTT(ctx, w, e.Fleet, e.Measurements, cfg.RTT)
		},
		func() {
			_, evoSpan := obs.Start(ctx, "netsim.evolve")
			e.Evo = w.Evolve(rand.New(rand.NewSource(cfg.EvolutionSeed)), netsim.DefaultEvolutionParams())
			evoSpan.End()
			vCtx, vSpan := obs.Start(ctx, "vendors.build")
			defer vSpan.End()
			e.Feed = vendors.BuildFeed(w, vendors.DefaultFeedConfig())
			e.DBs, vendorErr = buildVendors(vCtx, "vendors.build", vendors.Inputs{
				World:   w,
				Feed:    e.Feed,
				Zone:    e.Zone,
				Decoder: e.Dec,
			})
		},
	}
	par.Each(len(chains), func(i int) { chains[i]() })

	for _, id := range e.Coll.Interfaces {
		e.ArkAddrs = append(e.ArkAddrs, w.Interfaces[id].Addr)
	}

	_, mSpan := obs.Start(ctx, "groundtruth.merge")
	e.GT = groundtruth.Merge(e.DNS, e.RTTDS)
	e.Targets = core.TargetsFromDataset(w, e.GT)
	mSpan.SetItems(int64(len(e.Targets)))
	mSpan.End()

	// The 1 ms dataset moves its entries along the churn timeline, which
	// only exists after the join. This step is cheap, so its span covers
	// the 1 ms RTT ground truth alone and takes the dataset's size here.
	e.OneMs = groundtruth.Build1ms(w, oneMsBase, e.Evo, 10, 0.7, cfg.EvolutionSeed+1)
	oneMsSpan.SetItems(int64(e.OneMs.Len()))

	if vendorErr != nil {
		return nil, fmt.Errorf("experiments: build vendors: %w", vendorErr)
	}
	return e, nil
}

// BuildDBsAt rebuilds the four vendor databases as of a churn horizon on
// the environment's evolution timeline, in the same presentation order
// as DBs. A horizon of zero reproduces DBs byte for byte — every vendor
// pipeline consumes the month-0 view of the same timeline — which is the
// anchor the longitudinal analyses (and the snapshot series geosnap
// publishes) rest on.
func (e *Env) BuildDBsAt(ctx context.Context, months float64) ([]*geodb.DB, error) {
	vCtx, vSpan := obs.Start(ctx, "vendors.build_at")
	defer vSpan.End()
	dbs, err := buildVendors(vCtx, "vendors.build_at", vendors.Inputs{
		World:      e.W,
		Feed:       e.Feed,
		Zone:       e.Zone,
		Decoder:    e.Dec,
		Evo:        e.Evo,
		AsOfMonths: months,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: build vendors at %v months: %w", months, err)
	}
	return dbs, nil
}

// buildVendors runs the four vendor pipelines on the measurement engine,
// each under a "<span>.<vendor>" child of ctx's span, and returns the
// databases in presentation order. The pipelines are read-only over the
// shared inputs and deterministic per vendor, so the result does not
// depend on the worker count.
func buildVendors(ctx context.Context, span string, in vendors.Inputs) ([]*geodb.DB, error) {
	params := vendors.AllParams()
	dbs := make([]*geodb.DB, len(params))
	errs := make([]error, len(params))
	par.Each(len(params), func(j int) {
		// Claim from the end: NetAcuity, last in presentation order and
		// the only pipeline that decodes rDNS hints, takes about 60% of
		// the build, so it starts first instead of after two others.
		i := len(params) - 1 - j
		_, sp := obs.Start(ctx, span+"."+params[i].Name)
		defer sp.End()
		dbs[i], errs[i] = vendors.Build(in, params[i])
		if dbs[i] != nil {
			sp.SetItems(int64(dbs[i].Len()))
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return dbs, nil
}
