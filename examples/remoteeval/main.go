// RemoteEval: the commercial databases the paper studies are usually
// consumed as hosted lookup APIs, not local files. This example serves a
// study's four databases over HTTP (the same handler cmd/geoserve runs),
// points the batch-first API client at them, and re-runs the paper's
// accuracy evaluation across the wire — demonstrating that the
// methodology in internal/core is transport-agnostic: a Provider is a
// Provider.
//
// Two remote paths are compared. The plain Client pays one round trip
// per address; the RemoteProvider prefetches the whole target list
// through POST /v2/lookup with a bounded worker pool, which is how the
// paper's 1.64M-address Ark sweep stays tractable over a network.
//
// A third leg repeats the batched evaluation against a server wrapped
// in the "mixed" chaos policy (internal/faults), with the local
// database armed as the degradation fallback — the same configuration
// `geoserve -chaos mixed` serves. Retries, the circuit breaker and
// fallback degradation absorb every injected fault; the numbers still
// match bit-for-bit, and the degraded/transport tallies show what it
// cost.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	"routergeo"
	"routergeo/internal/core"
	"routergeo/internal/experiments"
	"routergeo/internal/faults"
	"routergeo/internal/geodb/httpapi"
)

func main() {
	// Build the environment directly so we can reach the databases and
	// targets; the public facade wraps this same machinery.
	cfg := experiments.DefaultConfig()
	cfg.World.ASes = 250
	cfg.Atlas.Probes = 600
	cfg.OneMsProbes = 900
	ctx := context.Background()
	env, err := experiments.NewEnv(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Serve the four databases exactly as cmd/geoserve would.
	srv := httptest.NewServer(httpapi.NewHandler(env.DBs))
	defer srv.Close()
	fmt.Printf("serving %d databases at %s\n\n", len(env.DBs), srv.URL)

	// A second server under the "mixed" chaos policy — latency spikes,
	// 503 bursts, throttles, resets, truncated and dripped bodies — as
	// `geoserve -chaos mixed` would serve it.
	policy, err := faults.Parse("mixed:delay=2ms")
	if err != nil {
		log.Fatal(err)
	}
	injector := faults.New(policy, faults.WithExemptPaths("/healthz", "/v2/stats"))
	chaotic := httptest.NewServer(injector.Middleware(httpapi.NewHandler(env.DBs)))
	defer chaotic.Close()

	fmt.Printf("%-18s %13s %13s %15s %12s\n",
		"database", "country acc", "city acc", "transport", "eval time")
	for _, db := range env.DBs {
		local := core.MeasureAccuracy(ctx, db, env.Targets)
		fmt.Printf("%-18s %12.1f%% %12.1f%% %15s %12s\n",
			db.Name(), 100*local.CountryAccuracy(), 100*local.CityAccuracy(), "local", "-")

		// Path 1: single-lookup client — one single-address POST
		// /v2/lookup per address.
		single := httpapi.NewClient(srv.URL, httpapi.WithDatabase(db.Name()))
		start := time.Now()
		remoteSingle := core.MeasureAccuracy(ctx, single, env.Targets)
		singleTime := time.Since(start)
		fmt.Printf("%-18s %12.1f%% %12.1f%% %15s %12s\n",
			"", 100*remoteSingle.CountryAccuracy(), 100*remoteSingle.CityAccuracy(),
			"HTTP /v2 x1", singleTime.Round(time.Millisecond))

		// Path 2: RemoteProvider — core's Prefetcher hook batches every
		// target through POST /v2/lookup with eight workers.
		batched, err := httpapi.NewRemoteProvider(httpapi.NewClient(srv.URL,
			httpapi.WithDatabase(db.Name()),
			httpapi.WithConcurrency(8),
			httpapi.WithClientMaxBatch(2000)))
		if err != nil {
			log.Fatal(err)
		}
		start = time.Now()
		remoteBatch := core.MeasureAccuracy(ctx, batched, env.Targets)
		batchTime := time.Since(start)
		fmt.Printf("%-18s %12.1f%% %12.1f%% %15s %12s\n",
			"", 100*remoteBatch.CountryAccuracy(), 100*remoteBatch.CityAccuracy(),
			"HTTP /v2 batch", batchTime.Round(time.Millisecond))

		// Path 3: the same batched evaluation through the chaotic server,
		// resilience armed: short capped backoff, a per-host breaker, and
		// the local database as degradation fallback.
		hardened, err := httpapi.NewRemoteProvider(httpapi.NewClient(chaotic.URL,
			httpapi.WithDatabase(db.Name()),
			httpapi.WithConcurrency(8),
			httpapi.WithClientMaxBatch(2000),
			httpapi.WithRetries(4),
			httpapi.WithBackoff(2*time.Millisecond),
			httpapi.WithMaxBackoff(20*time.Millisecond),
			httpapi.WithBreaker(5, 50*time.Millisecond)),
			httpapi.WithFallback(db))
		if err != nil {
			log.Fatal(err)
		}
		start = time.Now()
		remoteChaos := core.MeasureAccuracy(ctx, hardened, env.Targets)
		chaosTime := time.Since(start)
		fmt.Printf("%-18s %12.1f%% %12.1f%% %15s %12s  (degraded %d, transport errors %d)\n",
			"", 100*remoteChaos.CountryAccuracy(), 100*remoteChaos.CityAccuracy(),
			"HTTP + chaos", chaosTime.Round(time.Millisecond),
			hardened.Degraded(), hardened.TransportErrors())

		for _, remote := range []core.Accuracy{remoteSingle, remoteBatch, remoteChaos} {
			if local.CountryCorrect != remote.CountryCorrect || local.Within40Km != remote.Within40Km {
				log.Fatalf("%s: remote evaluation diverged from local", db.Name())
			}
		}
		if err := single.Err(); err != nil {
			log.Fatalf("%s: single-lookup run hit transport errors: %v", db.Name(), err)
		}
		if err := batched.Err(); err != nil {
			log.Fatalf("%s: batched run hit transport errors: %v", db.Name(), err)
		}
	}
	fmt.Println("\nlocal, per-address HTTP, batched HTTP and chaos-degraded evaluations all")
	fmt.Println("agree bit-for-bit; the core methodology only sees the geodb.Provider")
	fmt.Println("interface, so hosted databases score identically — the batch path just")
	fmt.Println("gets there much faster, and the resilience layer keeps the numbers")
	fmt.Println("honest when the transport misbehaves.")
	_ = routergeo.ExperimentIDs // the facade exposes the same machinery
}
