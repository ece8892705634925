package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"routergeo/internal/geo"
	"routergeo/internal/geodb"
	"routergeo/internal/groundtruth"
	"routergeo/internal/ipx"
	"routergeo/internal/obs"
	"routergeo/internal/par"
	"routergeo/internal/stats"
)

// forceParallel drops the serial cutoff, shrinks the block size and pins
// the worker count so even tiny inputs split into many stolen blocks,
// restoring everything on cleanup.
func forceParallel(t *testing.T, workers int) {
	t.Helper()
	oldCutoff, oldBlock := serialCutoff, blockSize
	serialCutoff = 1
	blockSize = 512
	par.SetParallelism(workers)
	t.Cleanup(func() {
		serialCutoff, blockSize = oldCutoff, oldBlock
		par.SetParallelism(0)
	})
}

// noBatch hides every fast-path interface of a database, forcing the
// engine down the per-address fallback so the equality tests cover both
// resolver paths.
type noBatch struct{ db geodb.Provider }

func (n noBatch) Name() string                           { return n.db.Name() }
func (n noBatch) Lookup(a ipx.Addr) (geodb.Record, bool) { return n.db.Lookup(a) }

// synthDB builds a deterministic database: /24s across 10.0.0.0/8 cycle
// through city, country-only, and missing records, with coordinates
// drifting so distances vary.
func synthDB(t testing.TB, name string, seed int64) *geodb.DB {
	b := geodb.NewBuilder(name)
	rng := rand.New(rand.NewSource(seed))
	countries := []string{"US", "DE", "FR", "BR", "JP"}
	for i := 0; i < 700; i++ {
		p := ipx.Prefix{Base: ipx.Addr(10<<24 | i<<8), Bits: 24}
		switch i % 3 {
		case 0:
			cc := countries[rng.Intn(len(countries))]
			coord := geo.Coordinate{Lat: -60 + rng.Float64()*120, Lon: -170 + rng.Float64()*340}
			b.AddPrefix(0, p, geodb.Record{
				Country: cc, City: fmt.Sprintf("city-%d", i), Coord: coord,
				Resolution: geodb.ResolutionCity,
			})
		case 1:
			b.AddPrefix(0, p, geodb.Record{
				Country:    countries[rng.Intn(len(countries))],
				Resolution: geodb.ResolutionCountry,
			})
		}
	}
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// synthInputs returns a deterministic address sweep and target list over
// the synthetic databases' address space, misses included.
func synthInputs(n int) ([]ipx.Addr, []Target) {
	rng := rand.New(rand.NewSource(42))
	addrs := make([]ipx.Addr, n)
	targets := make([]Target, n)
	countries := []string{"US", "DE", "FR", "BR", "JP"}
	rirs := []geo.RIR{geo.ARIN, geo.RIPENCC, geo.APNIC, geo.LACNIC, geo.AFRINIC}
	methods := []groundtruth.Method{groundtruth.DNS, groundtruth.RTT}
	for i := range addrs {
		a := ipx.Addr(10<<24 | rng.Intn(900)<<8 | rng.Intn(256))
		addrs[i] = a
		truth := geo.Coordinate{Lat: -60 + rng.Float64()*120, Lon: -170 + rng.Float64()*340}
		targets[i] = Target{
			Addr:     a,
			Truth:    truth,
			TruthVec: truth.Vec(), // cached, as TargetsFromDataset would
			Country:  countries[rng.Intn(len(countries))],
			RIR:      rirs[rng.Intn(len(rirs))],
			Method:   methods[rng.Intn(len(methods))],
		}
	}
	return addrs, targets
}

func sameAccuracy(t *testing.T, label string, want, got Accuracy) {
	t.Helper()
	if want.Total != got.Total || want.CountryAnswered != got.CountryAnswered ||
		want.CountryCorrect != got.CountryCorrect || want.CityAnswered != got.CityAnswered ||
		want.Within40Km != got.Within40Km {
		t.Errorf("%s: counters diverge: serial %+v parallel %+v", label, want, got)
	}
	samePoints(t, label, want.ErrorCDF, got.ErrorCDF)
}

func samePoints(t *testing.T, label string, want, got *stats.ECDF) {
	t.Helper()
	ws, gs := want.Points(), got.Points()
	if len(ws) != len(gs) {
		t.Fatalf("%s: CDF has %d samples serial, %d parallel", label, len(ws), len(gs))
	}
	for i := range ws {
		if ws[i] != gs[i] {
			t.Fatalf("%s: CDF point %d: serial %v parallel %v", label, i, ws[i], gs[i])
		}
	}
}

// perGroup scores each group of targets with its own MeasureAccuracy
// call: the definition the grouped wrappers' one-pass scorer must
// reproduce.
func perGroup[K comparable](ctx context.Context, db geodb.Provider, targets []Target, key func(Target) K) map[K]Accuracy {
	grouped := map[K][]Target{}
	for _, t := range targets {
		grouped[key(t)] = append(grouped[key(t)], t)
	}
	out := make(map[K]Accuracy, len(grouped))
	for k, ts := range grouped {
		out[k] = MeasureAccuracy(ctx, db, ts)
	}
	return out
}

// sameGroups checks a grouped breakdown group by group against its
// per-group oracle.
func sameGroups[K comparable](t *testing.T, label string, want, got map[K]Accuracy) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups, want %d", label, len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("%s: group %v missing", label, k)
		}
		sameAccuracy(t, fmt.Sprintf("%s[%v]", label, k), w, g)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	ctx := context.Background()
	dbA := synthDB(t, "a", 1)
	dbB := synthDB(t, "b", 2)
	dbC := synthDB(t, "c", 3)
	providers := []geodb.Provider{dbA, dbB, dbC}
	addrs, targets := synthInputs(5000)

	// Serial oracle first. The grouped wrappers score every group in one
	// sweep; their oracle is the per-group definition, MeasureAccuracy
	// over each group's targets alone, and they must match it at one
	// worker and at several.
	par.SetParallelism(1)
	covS := MeasureCoverage(ctx, dbA, addrs)
	accS := MeasureAccuracy(ctx, dbA, targets)
	byRIRS := perGroup(ctx, dbA, targets, func(t Target) geo.RIR { return t.RIR })
	byCCS := perGroup(ctx, dbA, targets, func(t Target) string { return t.Country })
	byMS := perGroup(ctx, dbA, targets, func(t Target) groundtruth.Method { return t.Method })
	sameGroups(t, "byRIR serial", byRIRS, AccuracyByRIR(ctx, dbA, targets))
	sameGroups(t, "byCountry serial", byCCS, AccuracyByCountry(ctx, dbA, targets))
	sameGroups(t, "byMethod serial", byMS, AccuracyByMethod(ctx, dbA, targets))
	agreeS, bothS := CountryAgreement(ctx, dbA, dbB, addrs)
	allS, totalS := CountryAgreementAll(ctx, providers, addrs)
	pairS := MeasurePairwiseCity(ctx, dbA, dbB, addrs)
	cityS := CityAnsweredInAll(ctx, providers, addrs)
	sharedS, wrongS := SharedIncorrect(ctx, providers, targets)

	// The fallback variant hides BatchIndexer behind a wrapper: both
	// resolver paths must reproduce the same serial oracle.
	variants := []struct {
		name      string
		a, b      geodb.Provider
		providers []geodb.Provider
	}{
		{"batch", dbA, dbB, providers},
		{"fallback", noBatch{dbA}, noBatch{dbB},
			[]geodb.Provider{noBatch{dbA}, noBatch{dbB}, noBatch{dbC}}},
	}

	for _, v := range variants {
		for _, workers := range []int{2, 3, 7} {
			t.Run(fmt.Sprintf("%s/workers=%d", v.name, workers), func(t *testing.T) {
				forceParallel(t, workers)
				dbA, dbB, providers := v.a, v.b, v.providers

				if covP := MeasureCoverage(ctx, dbA, addrs); covP != covS {
					t.Errorf("coverage: serial %+v parallel %+v", covS, covP)
				}
				sameAccuracy(t, "accuracy", accS, MeasureAccuracy(ctx, dbA, targets))

				sameGroups(t, "byRIR", byRIRS, AccuracyByRIR(ctx, dbA, targets))
				sameGroups(t, "byCountry", byCCS, AccuracyByCountry(ctx, dbA, targets))
				sameGroups(t, "byMethod", byMS, AccuracyByMethod(ctx, dbA, targets))

				if agreeP, bothP := CountryAgreement(ctx, dbA, dbB, addrs); agreeP != agreeS || bothP != bothS {
					t.Errorf("agreement: serial %d/%d parallel %d/%d", agreeS, bothS, agreeP, bothP)
				}
				if allP, totalP := CountryAgreementAll(ctx, providers, addrs); allP != allS || totalP != totalS {
					t.Errorf("agreement-all: serial %d/%d parallel %d/%d", allS, totalS, allP, totalP)
				}

				pairP := MeasurePairwiseCity(ctx, dbA, dbB, addrs)
				if pairP.Both != pairS.Both || pairP.Identical != pairS.Identical || pairP.Over40Km != pairS.Over40Km {
					t.Errorf("pairwise: serial %+v parallel %+v", pairS, pairP)
				}
				samePoints(t, "pairwise CDF", pairS.CDF, pairP.CDF)

				cityP := CityAnsweredInAll(ctx, providers, addrs)
				if len(cityP) != len(cityS) {
					t.Fatalf("city-in-all: %d vs %d survivors", len(cityS), len(cityP))
				}
				for i := range cityS {
					if cityP[i] != cityS[i] {
						t.Fatalf("city-in-all order diverges at %d: %v vs %v", i, cityS[i], cityP[i])
					}
				}

				sharedP, wrongP := SharedIncorrect(ctx, providers, targets)
				if sharedP != sharedS {
					t.Errorf("shared-incorrect: serial %d parallel %d", sharedS, sharedP)
				}
				for i := range wrongS {
					if wrongP[i] != wrongS[i] {
						t.Errorf("wrongPerDB[%d]: serial %d parallel %d", i, wrongS[i], wrongP[i])
					}
				}
			})
		}
	}
}

// prefetchCounter hides a database's batch path, like noBatch, and
// records every address list a sweep offers it through Prefetcher.
type prefetchCounter struct {
	noBatch
	offered [][]ipx.Addr
}

func (p *prefetchCounter) Prefetch(_ context.Context, addrs []ipx.Addr) error {
	p.offered = append(p.offered, slices.Clone(addrs))
	return nil
}

// TestSweepContract holds every sweep to the same engine contract on a
// multi-block, multi-worker schedule: one Prefetch per provider carrying
// the whole input, and one child span under the caller's, named for the
// sweep and counting the input. The grouped accuracy wrappers are held
// to it too: one sweep per call, however many groups.
func TestSweepContract(t *testing.T) {
	dbs := []*geodb.DB{synthDB(t, "a", 1), synthDB(t, "b", 2), synthDB(t, "c", 3)}
	addrs, targets := synthInputs(3000)
	targetAddrs := make([]ipx.Addr, len(targets))
	for i, tg := range targets {
		targetAddrs[i] = tg.Addr
	}
	for _, tc := range []struct {
		name  string // the subtest's name when it is not the stage's
		stage string
		dbs   int
		input []ipx.Addr // what every provider must be offered
		run   func(ctx context.Context, ps []geodb.Provider)
	}{
		{"", "core.coverage", 1, addrs, func(ctx context.Context, ps []geodb.Provider) {
			MeasureCoverage(ctx, ps[0], addrs)
		}},
		{"", "core.accuracy", 1, targetAddrs, func(ctx context.Context, ps []geodb.Provider) {
			MeasureAccuracy(ctx, ps[0], targets)
		}},
		{"AccuracyByRIR", "core.accuracy", 1, targetAddrs, func(ctx context.Context, ps []geodb.Provider) {
			AccuracyByRIR(ctx, ps[0], targets)
		}},
		{"AccuracyByCountry", "core.accuracy", 1, targetAddrs, func(ctx context.Context, ps []geodb.Provider) {
			AccuracyByCountry(ctx, ps[0], targets)
		}},
		{"AccuracyByMethod", "core.accuracy", 1, targetAddrs, func(ctx context.Context, ps []geodb.Provider) {
			AccuracyByMethod(ctx, ps[0], targets)
		}},
		{"", "core.shared_incorrect", 3, targetAddrs, func(ctx context.Context, ps []geodb.Provider) {
			SharedIncorrect(ctx, ps, targets)
		}},
		{"", "core.country_agreement", 2, addrs, func(ctx context.Context, ps []geodb.Provider) {
			CountryAgreement(ctx, ps[0], ps[1], addrs)
		}},
		{"", "core.country_agreement_all", 3, addrs, func(ctx context.Context, ps []geodb.Provider) {
			CountryAgreementAll(ctx, ps, addrs)
		}},
		{"", "core.pairwise_city", 2, addrs, func(ctx context.Context, ps []geodb.Provider) {
			MeasurePairwiseCity(ctx, ps[0], ps[1], addrs)
		}},
		{"", "core.city_answered_in_all", 3, addrs, func(ctx context.Context, ps []geodb.Provider) {
			CityAnsweredInAll(ctx, ps, addrs)
		}},
	} {
		name := tc.name
		if name == "" {
			name = tc.stage
		}
		t.Run(name, func(t *testing.T) {
			forceParallel(t, 2)
			counters := make([]*prefetchCounter, tc.dbs)
			ps := make([]geodb.Provider, tc.dbs)
			for i := range ps {
				counters[i] = &prefetchCounter{noBatch: noBatch{dbs[i]}}
				ps[i] = counters[i]
			}
			ctx, root := obs.Start(context.Background(), "caller")
			tc.run(ctx, ps)
			root.End()

			for i, c := range counters {
				if len(c.offered) != 1 {
					t.Errorf("provider %d: %d Prefetch calls, want 1", i, len(c.offered))
					continue
				}
				if !slices.Equal(c.offered[0], tc.input) {
					t.Errorf("provider %d: prefetched %d addresses, want the %d-item input",
						i, len(c.offered[0]), len(tc.input))
				}
			}
			var spans []string
			for _, c := range root.Snapshot().Children {
				spans = append(spans, fmt.Sprintf("%s(items=%d)", c.Name, c.Items))
			}
			if want := fmt.Sprintf("%s(items=%d)", tc.stage, len(tc.input)); len(spans) != 1 || spans[0] != want {
				t.Errorf("child spans %v, want [%s]", spans, want)
			}
		})
	}
}

// TestParallelMatchesSerialAdversarial runs the sweep equality check on
// address patterns chosen to stress the batch kernel: already sorted,
// reversed, all-duplicate, tightly clustered and block-striped inputs.
func TestParallelMatchesSerialAdversarial(t *testing.T) {
	ctx := context.Background()
	dbA := synthDB(t, "a", 1)
	dbB := synthDB(t, "b", 2)

	n := 5000
	patterns := map[string]func(i int) ipx.Addr{
		"sorted":    func(i int) ipx.Addr { return ipx.Addr(10<<24 | (i%900)<<8 | i%256) },
		"reversed":  func(i int) ipx.Addr { return ipx.Addr(10<<24 | ((n-i)%900)<<8 | (n-i)%256) },
		"identical": func(i int) ipx.Addr { return ipx.Addr(10<<24 | 3<<8 | 7) },
		"clustered": func(i int) ipx.Addr { return ipx.Addr(10<<24 | 5<<8 | i%256) },
		"striped":   func(i int) ipx.Addr { return ipx.Addr(10<<24 | (i*37%900)<<8 | i*101%256) },
	}
	for name, gen := range patterns {
		t.Run(name, func(t *testing.T) {
			addrs := make([]ipx.Addr, n)
			for i := range addrs {
				addrs[i] = gen(i)
			}
			par.SetParallelism(1)
			covS := MeasureCoverage(ctx, dbA, addrs)
			agreeS, bothS := CountryAgreement(ctx, dbA, dbB, addrs)
			pairS := MeasurePairwiseCity(ctx, dbA, dbB, addrs)

			forceParallel(t, 4)
			if covP := MeasureCoverage(ctx, dbA, addrs); covP != covS {
				t.Errorf("coverage: serial %+v parallel %+v", covS, covP)
			}
			if agreeP, bothP := CountryAgreement(ctx, dbA, dbB, addrs); agreeP != agreeS || bothP != bothS {
				t.Errorf("agreement: serial %d/%d parallel %d/%d", agreeS, bothS, agreeP, bothP)
			}
			pairP := MeasurePairwiseCity(ctx, dbA, dbB, addrs)
			if pairP.Both != pairS.Both || pairP.Identical != pairS.Identical || pairP.Over40Km != pairS.Over40Km {
				t.Errorf("pairwise: serial %+v parallel %+v", pairS, pairP)
			}
			samePoints(t, "pairwise CDF", pairS.CDF, pairP.CDF)
		})
	}
}

func TestWorkersFor(t *testing.T) {
	par.SetParallelism(8)
	defer par.SetParallelism(0)
	if w := workersFor(10); w != 1 {
		t.Errorf("small input got %d workers", w)
	}
	if w := workersFor(serialCutoff); w != 8 {
		t.Errorf("large input got %d workers, want 8", w)
	}
	par.SetParallelism(1)
	if w := workersFor(1 << 20); w != 1 {
		t.Errorf("parallelism=1 got %d workers", w)
	}
}
