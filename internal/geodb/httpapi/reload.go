package httpapi

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"time"

	"routergeo/internal/geodb"
	"routergeo/internal/geodb/snapshot"
	"routergeo/internal/obs"
)

// ErrReloadInFlight is returned by Reloader.Rescan when another rescan
// is already loading or swapping; the admin endpoint maps it to 409.
var ErrReloadInFlight = errors.New("httpapi: snapshot reload already in flight")

// DefaultReloadInterval is how often Reloader.Run polls the snapshot
// directory when no interval is configured.
const DefaultReloadInterval = 5 * time.Second

// Reloader gives a Handler zero-downtime hot reload from a snapshot
// directory: it polls the directory, and when the set of *.rgsnap files
// changes (path, size, mtime or header checksum) it loads the whole new
// generation beside
// the old one, validates every file (magic, version, checksum — the
// loader refuses anything less), and swaps it in atomically. A failed
// load leaves the serving generation untouched. Publishers therefore
// deploy by writing snapshots to a temp name and renaming into place —
// exactly what snapshot.WriteFile does.
type Reloader struct {
	h        *Handler
	dir      string
	interval time.Duration
	logger   *slog.Logger

	// inFlight serializes rescans without blocking: concurrent callers
	// get ErrReloadInFlight instead of queueing behind a slow load.
	inFlight chan struct{}
	// state is the directory fingerprint of the generation last swapped
	// in; only the rescan holding inFlight touches it.
	state map[string]fileStamp

	reloads  *obs.Counter
	failures *obs.Counter
}

type fileStamp struct {
	size  int64
	mtime time.Time
	// sum is the snapshot header checksum: a republish of different
	// content at the same size landing within mtime granularity still
	// changes the stamp. 0 when the header could not be read — the
	// stamp is kept anyway so a corrupt publish stays visible as a
	// change (and fails the load loudly).
	sum uint64
}

// NewReloader watches dir on behalf of h. interval <= 0 selects
// DefaultReloadInterval; logger nil disables reload logging. Reload
// outcomes are counted in h's registry as reload.count / reload.failures.
func NewReloader(h *Handler, dir string, interval time.Duration, logger *slog.Logger) *Reloader {
	if interval <= 0 {
		interval = DefaultReloadInterval
	}
	h.Registry().SetHelp("reload.count", "Successful snapshot-directory hot reloads.")
	h.Registry().SetHelp("reload.failures", "Snapshot rescans that failed and left the serving generation untouched.")
	return &Reloader{
		h:        h,
		dir:      dir,
		interval: interval,
		logger:   logger,
		inFlight: make(chan struct{}, 1),
		reloads:  h.Registry().Counter("reload.count"),
		failures: h.Registry().Counter("reload.failures"),
	}
}

// scan fingerprints the snapshot files currently in the directory.
func (r *Reloader) scan() (map[string]fileStamp, error) {
	paths, err := filepath.Glob(filepath.Join(r.dir, "*"+snapshot.Ext))
	if err != nil {
		return nil, err
	}
	out := make(map[string]fileStamp, len(paths))
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			// A file vanishing between glob and stat is a publisher mid-
			// rename; skip it, the next poll sees the stable state.
			continue
		}
		sum, err := snapshot.HeaderChecksum(p)
		if err != nil {
			sum = 0
		}
		out[p] = fileStamp{size: st.Size(), mtime: st.ModTime(), sum: sum}
	}
	return out, nil
}

func sameStamps(a, b map[string]fileStamp) bool {
	if len(a) != len(b) {
		return false
	}
	for p, s := range a {
		if o, ok := b[p]; !ok || o != s {
			return false
		}
	}
	return true
}

// Rescan checks the directory once and hot-swaps a new generation if it
// changed (or force is set). It reports whether a swap happened.
// Concurrent calls do not queue: whoever finds a rescan in flight gets
// ErrReloadInFlight. Any load failure counts in reload.failures, leaves
// the serving generation untouched, and closes whatever was already
// opened for the aborted generation.
func (r *Reloader) Rescan(force bool) (bool, error) {
	select {
	case r.inFlight <- struct{}{}:
	default:
		return false, ErrReloadInFlight
	}
	defer func() { <-r.inFlight }()

	stamps, err := r.scan()
	if err != nil {
		r.failures.Inc()
		r.h.bus.Publish("reload.fail", "dir", r.dir, "error", err.Error())
		return false, err
	}
	if len(stamps) == 0 {
		r.failures.Inc()
		err := fmt.Errorf("httpapi: no %s files in %s", snapshot.Ext, r.dir)
		r.h.bus.Publish("reload.fail", "dir", r.dir, "error", err.Error())
		return false, err
	}
	if !force && sameStamps(stamps, r.state) {
		return false, nil
	}

	var paths []string
	for p := range stamps {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var dbs []*geodb.DB
	var closers []func() error
	for _, p := range paths {
		h, err := snapshot.Open(p)
		if err != nil {
			for _, c := range closers {
				_ = c()
			}
			r.failures.Inc()
			r.h.bus.Publish("reload.fail", "path", p, "error", err.Error())
			if r.logger != nil {
				r.logger.Error("snapshot reload failed; keeping serving generation",
					"path", p, "error", err)
			}
			return false, err
		}
		dbs = append(dbs, h.DB())
		closers = append(closers, h.Close)
	}
	gen := r.h.Swap(dbs, closers...)
	r.state = stamps
	r.reloads.Inc()
	r.h.bus.Publish("reload.ok", "generation", gen, "databases", len(dbs), "dir", r.dir)
	if r.logger != nil {
		r.logger.Info("snapshot generation swapped in",
			"generation", gen, "databases", len(dbs), "dir", r.dir)
	}
	return true, nil
}

// Run polls the directory until ctx is cancelled. Failed rescans are
// logged and retried on the next tick; the serving generation is never
// disturbed by a bad publish.
func (r *Reloader) Run(ctx context.Context) {
	t := time.NewTicker(r.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if _, err := r.Rescan(false); err != nil && !errors.Is(err, ErrReloadInFlight) {
				if r.logger != nil {
					r.logger.Warn("snapshot rescan failed", "dir", r.dir, "error", err)
				}
			}
		}
	}
}
