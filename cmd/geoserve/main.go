// Command geoserve exposes geolocation databases over HTTP, the way the
// commercial products are consumed in production. It serves exported
// database files (any format, sniffed by magic bytes), the four
// simulated databases of a freshly built study, or — for zero-downtime
// operation — a directory of .rgsnap snapshots it hot-reloads from.
//
// Usage:
//
//	geoserve [-addr :8080] [-db dir_or_file]...       # serve exported files
//	geoserve [-addr :8080] -build [-seed N]           # build a study and serve it
//	geoserve [-addr :8080] -snap-dir dir [-admin]     # serve snapshots, hot-reload on change
//
// Endpoints: GET /v1/databases, GET /v1/lookup?ip=A[&db=N] (stable),
// POST /v2/lookup (batch), GET /v2/databases, GET /v2/stats,
// POST /v2/admin/reload (with -admin), GET /healthz (which reports
// "draining" once shutdown starts), GET /metrics (Prometheus text
// exposition; Accept: application/json selects the raw registry
// snapshot), and GET /v2/events (the live event stream as SSE:
// generation swaps, reload outcomes, chaos injections).
//
// With -snap-dir the serving set is a generation: the directory is
// polled every -reload-interval, and when a publisher renames new
// snapshots into place the whole new generation is loaded beside the
// old, validated, and swapped in atomically — in-flight requests finish
// on the generation they started with, and zero requests drop. A bad
// publish (corrupt or truncated snapshot) is logged, counted in
// reload.failures, and leaves the serving generation untouched. -admin
// arms POST /v2/admin/reload to trigger a rescan on demand (?force=1
// re-loads even when the directory looks unchanged; a rescan already in
// flight answers 409).
//
// -archive N keeps the last N retired generations alive after a swap so
// GET /v2/lookup?asof=<unix> can time-travel: the newest generation
// whose build epoch is at or before asof answers (its id in
// X-Geodb-Generation), and an asof older than everything retained is a
// 404 with a sentinel error body. /v2/stats reports the archive depth
// and horizon.
//
// SIGINT/SIGTERM trigger a graceful shutdown: /healthz flips to
// draining, in-flight requests get -drain to finish, then the listener
// closes.
//
// -chaos <policy> arms deterministic fault injection over every lookup
// endpoint (health and stats stay exempt so the server remains
// observable while it misbehaves): latency spikes, 5xx bursts,
// throttles, connection resets, truncated bodies and slow-loris
// responses, per internal/faults. Policies are named (latency, errors,
// throttle, resets, truncate, slowloris, mixed) with inline overrides —
// "errors:rate=0.5,seed=7" — and the same spec always injects the same
// schedule, so client resilience tests are reproducible. Injected-fault
// tallies appear in /v2/stats under "chaos".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"routergeo/internal/experiments"
	"routergeo/internal/faults"
	"routergeo/internal/geodb"
	"routergeo/internal/geodb/dbload"
	"routergeo/internal/geodb/httpapi"
	"routergeo/internal/obs"
)

type dbList []string

func (d *dbList) String() string     { return strings.Join(*d, ",") }
func (d *dbList) Set(v string) error { *d = append(*d, v); return nil }

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address")
		build       = flag.Bool("build", false, "build a study and serve its four databases")
		seed        = flag.Int64("seed", 1, "world seed (with -build)")
		maxBatch    = flag.Int("max-batch", httpapi.DefaultMaxBatch, "max addresses per /v2/lookup request")
		timeout     = flag.Duration("timeout", httpapi.DefaultRequestTimeout, "deadline of each API request: reading the body, the lookup and sending the answer; past it the connection closes (0 disables; /metrics and /v2/events have none)")
		drain       = flag.Duration("drain", 10*time.Second, "shutdown drain timeout")
		grace       = flag.Duration("grace", time.Second, "delay between /healthz flipping to draining and the listener closing")
		quiet       = flag.Bool("quiet", false, "silence routine access logs (4xx/5xx still log)")
		debugAddr   = flag.String("debug-addr", "", "optional debug listener serving pprof, /debug/metrics, /metrics and the /v2/events stream")
		chaos       = flag.String("chaos", "", "fault-injection policy, e.g. mixed or errors:rate=0.5,seed=7 (see internal/faults)")
		snapDir     = flag.String("snap-dir", "", "directory of .rgsnap snapshots to serve and hot-reload from")
		reloadEvery = flag.Duration("reload-interval", httpapi.DefaultReloadInterval, "how often -snap-dir is polled for new snapshot generations")
		archive     = flag.Int("archive", 0, "retired generations to keep answering /v2/lookup?asof= time-travel queries (0 disables)")
		admin       = flag.Bool("admin", false, "arm POST /v2/admin/reload (requires -snap-dir)")
		dbPaths     dbList
	)
	lf := obs.AddLogFlags(flag.CommandLine)
	flag.Var(&dbPaths, "db", "path to a database file or a directory of them (repeatable)")
	flag.Parse()

	logger, err := lf.Setup(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "geoserve:", err)
		os.Exit(2)
	}

	if *admin && *snapDir == "" {
		fmt.Fprintln(os.Stderr, "geoserve: -admin requires -snap-dir")
		os.Exit(2)
	}

	var dbs []*geodb.DB
	switch {
	case *snapDir != "":
		// The serving set comes from the reloader's first rescan below;
		// the handler starts empty for a moment that nobody observes,
		// since the listener is not up yet.
	case *build:
		cfg := experiments.DefaultConfig()
		cfg.World.Seed = *seed
		fmt.Fprintln(os.Stderr, "building study...")
		start := time.Now()
		env, err := experiments.NewEnv(context.Background(), cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "geoserve:", err)
			os.Exit(1)
		}
		dbs = env.DBs
		fmt.Fprintf(os.Stderr, "built in %v\n", time.Since(start).Round(time.Millisecond))
	case len(dbPaths) > 0:
		for _, p := range dbPaths {
			loaded, err := dbload.Load(p)
			if err != nil {
				fmt.Fprintln(os.Stderr, "geoserve:", err)
				os.Exit(1)
			}
			dbs = append(dbs, loaded...)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: geoserve [-addr A] (-build | -db path... | -snap-dir dir)")
		os.Exit(2)
	}

	for _, db := range dbs {
		fmt.Fprintf(os.Stderr, "serving %s (%d ranges)\n", db.Name(), db.Len())
	}

	opts := []httpapi.ServerOption{
		httpapi.WithMaxBatch(*maxBatch),
		httpapi.WithRequestTimeout(*timeout),
	}
	if *archive > 0 {
		opts = append(opts, httpapi.WithSnapshotArchive(*archive))
	}
	// The access logger is always installed; -quiet raises its floor to
	// Warn so routine 2xx traffic goes silent while 4xx/5xx still log.
	accessLogger := logger
	if *quiet {
		level := lf.MinLevel()
		if level < slog.LevelWarn {
			level = slog.LevelWarn
		}
		accessLogger = obs.NewLogger(os.Stderr, level, lf.Format)
	}
	// The admin hook closes over rel, which needs the handler to exist
	// first; admin requests can only arrive after the listener is up,
	// well past the assignment below.
	var rel *httpapi.Reloader
	if *admin {
		opts = append(opts, httpapi.WithAdminReload(func(force bool) (bool, error) {
			return rel.Rescan(force)
		}))
	}
	opts = append(opts, httpapi.WithLogger(accessLogger))
	handler := httpapi.NewHandler(dbs, opts...)

	if *snapDir != "" {
		rel = httpapi.NewReloader(handler, *snapDir, *reloadEvery, logger)
		// The first generation must load, or there is nothing to serve.
		if _, err := rel.Rescan(true); err != nil {
			fmt.Fprintln(os.Stderr, "geoserve:", err)
			os.Exit(1)
		}
		reloadCtx, stopReload := context.WithCancel(context.Background())
		defer stopReload()
		go rel.Run(reloadCtx)
		fmt.Fprintf(os.Stderr, "hot reload armed: polling %s every %v (generation %s)\n",
			*snapDir, *reloadEvery, handler.Generation())
	}

	// The chaos middleware sits outside the whole handler stack so its
	// faults hit logging, metrics and recovery exactly as real transport
	// trouble would. /healthz, /v2/stats, /metrics and /v2/events stay
	// exempt: an operator watching a chaos run needs clean control and
	// observation channels.
	var root http.Handler = handler
	if *chaos != "" {
		policy, err := faults.Parse(*chaos)
		if err != nil {
			fmt.Fprintln(os.Stderr, "geoserve:", err)
			os.Exit(2)
		}
		injector := faults.New(policy,
			faults.WithExemptPaths("/healthz", "/v2/stats", "/metrics", "/v2/events"),
			faults.WithObserver(func(k faults.Kind) {
				handler.Registry().Counter("chaos.injected." + string(k)).Inc()
				handler.EventBus().Publish("chaos.inject", "kind", string(k))
			}))
		root = injector.Middleware(handler)
		logger.Warn("chaos fault injection armed", "policy", policy.Name, "seed", policy.Seed)
	}

	if *debugAddr != "" {
		logger.Info("debug listener up", "addr", *debugAddr)
		obs.ServeDebug(*debugAddr, handler.Registry(), handler.EventBus(), func(err error) {
			logger.Error("debug listener failed", "error", err)
		})
	}

	srv := &http.Server{
		Handler:           root,
		ReadHeaderTimeout: 5 * time.Second,
	}

	// Install the shutdown handler before announcing the listener: a
	// caller that signals as soon as it has seen "listening on" must get
	// the graceful drain, not the default kill.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	// Listen before serving so the printed address is the actual bound
	// one — with -addr :0 (tests, parallel CI) the kernel picks the port
	// and the "listening on" line is how callers learn it.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "geoserve:", err)
		os.Exit(1)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "listening on http://%s\n", ln.Addr())

	select {
	case err := <-errCh:
		// The listener failed before any shutdown was requested.
		fmt.Fprintln(os.Stderr, "geoserve:", err)
		os.Exit(1)
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "geoserve: %v: draining for up to %v\n", sig, *drain)
		handler.SetDraining(true)
		// Keep the listener up briefly so load balancers observe the 503
		// draining health answer before connections start being refused.
		time.Sleep(*grace)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "geoserve: drain incomplete:", err)
			os.Exit(1)
		}
		// ListenAndServe returns ErrServerClosed after Shutdown; anything
		// else is a real serve failure.
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "geoserve:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "geoserve: shutdown complete")
	}
}
