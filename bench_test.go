package routergeo

// The benchmark harness: one benchmark per table and figure of the
// paper's evaluation, per DESIGN.md's experiment index. Each benchmark
// measures a full regeneration of its artifact over a shared, once-built
// environment (the environment build itself is benchmarked separately in
// BenchmarkBuildEnvironment). Run with:
//
//	go test -bench=. -benchmem
//
// The printed artifacts themselves come from `go run ./cmd/routergeo`;
// the benchmarks quantify the cost of every analysis.

import (
	"context"
	"io"
	"net/http/httptest"
	"sync"
	"testing"

	"routergeo/internal/experiments"
	"routergeo/internal/geodb/httpapi"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
	benchErr  error
)

// benchEnvironment builds the default (seed 1) environment once per
// test binary; the artifact benchmarks and the golden-output test share
// it.
func benchEnvironment(tb testing.TB) *experiments.Env {
	tb.Helper()
	benchOnce.Do(func() {
		cfg := experiments.DefaultConfig()
		benchEnv, benchErr = experiments.NewEnv(context.Background(), cfg)
	})
	if benchErr != nil {
		tb.Fatal(benchErr)
	}
	return benchEnv
}

// benchExperiment runs one registered experiment repeatedly.
func benchExperiment(b *testing.B, id string) {
	env := benchEnvironment(b)
	exp, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := experiments.RunOne(context.Background(), exp, io.Discard, env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVendorBuilds measures the four vendor pipelines on the
// default world, as BuildDBsAt runs them for month 0 of the drift sweep.
func BenchmarkVendorBuilds(b *testing.B) {
	env := benchEnvironment(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.BuildDBsAt(context.Background(), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildEnvironment measures the full pipeline: world, Ark sweep,
// Atlas fleets, ground truth and all four vendor databases.
func BenchmarkBuildEnvironment(b *testing.B) {
	cfg := experiments.DefaultConfig()
	cfg.World.ASes = 250 // quick scale; the default world is benched once below
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NewEnv(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1GroundTruthStats regenerates Table 1.
func BenchmarkTable1GroundTruthStats(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkSec31DNSCorrectness regenerates §3.1's overlap and churn
// analyses.
func BenchmarkSec31DNSCorrectness(b *testing.B) { benchExperiment(b, "sec31") }

// BenchmarkSec32RTTCorrectness regenerates §3.2's disqualification funnel.
func BenchmarkSec32RTTCorrectness(b *testing.B) { benchExperiment(b, "sec32") }

// BenchmarkSec4CityCoordValidation regenerates the §4 methodology checks.
func BenchmarkSec4CityCoordValidation(b *testing.B) { benchExperiment(b, "sec4") }

// BenchmarkSec51CoverageConsistency regenerates §5.1's coverage and
// country-agreement analysis over the Ark set.
func BenchmarkSec51CoverageConsistency(b *testing.B) { benchExperiment(b, "sec51") }

// BenchmarkFigure1PairwiseCDF regenerates Figure 1.
func BenchmarkFigure1PairwiseCDF(b *testing.B) { benchExperiment(b, "fig1") }

// BenchmarkSec521GroundTruthAccuracy regenerates §5.2.1.
func BenchmarkSec521GroundTruthAccuracy(b *testing.B) { benchExperiment(b, "sec521") }

// BenchmarkFigure2ErrorCDF regenerates Figure 2.
func BenchmarkFigure2ErrorCDF(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFigure3CountryByRIR regenerates Figure 3.
func BenchmarkFigure3CountryByRIR(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFigure4PerCountry regenerates Figure 4.
func BenchmarkFigure4PerCountry(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFigure5CityErrorByRIR regenerates Figure 5a/5b.
func BenchmarkFigure5CityErrorByRIR(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkSec523ARINCaseStudy regenerates §5.2.3.
func BenchmarkSec523ARINCaseStudy(b *testing.B) { benchExperiment(b, "sec523") }

// BenchmarkSec524PerMethodAccuracy regenerates §5.2.4.
func BenchmarkSec524PerMethodAccuracy(b *testing.B) { benchExperiment(b, "sec524") }

// BenchmarkRecommendations regenerates the §6 synthesis.
func BenchmarkRecommendations(b *testing.B) { benchExperiment(b, "rec") }

// BenchmarkLookup measures single-address database queries, the hot path
// of any downstream user of the databases.
func BenchmarkLookup(b *testing.B) {
	env := benchEnvironment(b)
	db := env.DB("NetAcuity")
	addrs := env.ArkAddrs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Lookup(addrs[i%len(addrs)])
	}
}

// remoteBenchAddrs is the batch size the remote benchmarks resolve per
// iteration, so ns/op is directly comparable between the single-lookup
// and batched transports.
const remoteBenchAddrs = 1000

// BenchmarkRemoteLookupSingle pays the unbatched wire cost: one
// single-address POST /v2/lookup round trip per address.
func BenchmarkRemoteLookupSingle(b *testing.B) {
	env := benchEnvironment(b)
	srv := httptest.NewServer(httpapi.NewHandler(env.DBs))
	defer srv.Close()
	c := httpapi.NewClient(srv.URL, httpapi.WithDatabase("NetAcuity"))
	addrs := env.ArkAddrs[:remoteBenchAddrs]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range addrs {
			c.Lookup(a)
		}
	}
}

// BenchmarkRemoteLookupBatch resolves the same addresses through POST
// /v2/lookup with a bounded worker pool — the transport RemoteProvider
// uses. The per-iteration delta against BenchmarkRemoteLookupSingle is
// the batching win.
func BenchmarkRemoteLookupBatch(b *testing.B) {
	env := benchEnvironment(b)
	srv := httptest.NewServer(httpapi.NewHandler(env.DBs))
	defer srv.Close()
	c := httpapi.NewClient(srv.URL,
		httpapi.WithDatabase("NetAcuity"),
		httpapi.WithConcurrency(8),
		httpapi.WithClientMaxBatch(250))
	ips := make([]string, remoteBenchAddrs)
	for i := range ips {
		ips[i] = env.ArkAddrs[i].String()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.BatchLookup(context.Background(), ips); err != nil {
			b.Fatal(err)
		}
	}
}
