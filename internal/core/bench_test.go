package core

// Benchmarks for the measurement engine's three hot sweeps: coverage,
// accuracy and consistency. Each runs serial (the oracle path) and
// parallel (the engine at GOMAXPROCS) over the same synthetic inputs,
// so the pairwise delta is the engine's speedup on this machine:
//
//	go test -bench 'Coverage|Accuracy|Consistency' -benchmem ./internal/core/
//
// make bench tees the module-wide run into BENCH_core.json; make
// bench-compare diffs a fresh run against that baseline.

import (
	"context"
	"io"
	"log/slog"
	"sync"
	"testing"

	"routergeo/internal/geodb"
	"routergeo/internal/ipx"
	"routergeo/internal/par"
)

const benchAddrs = 200_000

var (
	benchOnce    sync.Once
	benchDBA     *geodb.DB
	benchDBB     *geodb.DB
	benchAddrSet []ipx.Addr
	benchTargets []Target
)

func benchInputs(b *testing.B) {
	b.Helper()
	benchOnce.Do(func() {
		// Progress reporters log through slog.Default; silence it so the
		// bench output (teed into BENCH_core.json) stays machine-parseable.
		slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))
		benchDBA = synthDB(b, "bench-a", 11)
		benchDBB = synthDB(b, "bench-b", 12)
		benchAddrSet, benchTargets = synthInputs(benchAddrs)
	})
}

// benchModes runs one sweep per iteration under every engine mode with
// parallelism pinned: serial (the oracle path), parallel (GOMAXPROCS —
// the bench-compare baseline) and the workers=1/2/4/8 scaling sweep.
// Every variant reports allocations and an items/s throughput metric
// over the benchAddrs-sized input; a warm-up sweep before the timer
// starts keeps allocs/op independent of the iteration count (the
// engine's pools amortize their warm-up, so without it a short -benchtime
// run would report inflated allocations and flake the CI alloc gate).
// On a machine with fewer cores than a variant's worker count the extra
// goroutines time-slice one CPU; the sweep then measures scheduling
// overhead rather than speedup.
func benchModes(b *testing.B, items int, sweep func()) {
	benchInputs(b)
	for _, mode := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0}, // GOMAXPROCS
		{"workers=1", 1},
		{"workers=2", 2},
		{"workers=4", 4},
		{"workers=8", 8},
	} {
		b.Run(mode.name, func(b *testing.B) {
			par.SetParallelism(mode.workers)
			defer par.SetParallelism(0)
			sweep() // warm the pools under this mode's worker count
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sweep()
			}
			b.StopTimer()
			b.ReportMetric(float64(items)*float64(b.N)/b.Elapsed().Seconds(), "items/s")
		})
	}
}

func BenchmarkCoverage(b *testing.B) {
	benchModes(b, benchAddrs, func() {
		MeasureCoverage(context.Background(), benchDBA, benchAddrSet)
	})
}

func BenchmarkAccuracy(b *testing.B) {
	benchModes(b, benchAddrs, func() {
		MeasureAccuracy(context.Background(), benchDBA, benchTargets)
	})
}

// BenchmarkConsistency measures the pairwise sweeps behind §5.1 and
// Figure 1: country agreement plus the city-distance comparison.
func BenchmarkConsistency(b *testing.B) {
	benchModes(b, benchAddrs, func() {
		CountryAgreement(context.Background(), benchDBA, benchDBB, benchAddrSet)
		MeasurePairwiseCity(context.Background(), benchDBA, benchDBB, benchAddrSet)
	})
}

// BenchmarkConsistencyAllDBs measures the every-database agreement scan.
func BenchmarkConsistencyAllDBs(b *testing.B) {
	benchInputs(b)
	dbs := []geodb.Provider{benchDBA, benchDBB}
	benchModes(b, benchAddrs, func() {
		CountryAgreementAll(context.Background(), dbs, benchAddrSet)
	})
}
