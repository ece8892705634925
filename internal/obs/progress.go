package obs

import (
	"log/slog"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// ProgressThreshold is the default loop size below which NewProgress
// stays silent: short loops finish before a progress line would help.
// Overridable per reporter with WithProgressThreshold and process-wide
// with the ROUTERGEO_PROGRESS_THRESHOLD environment variable.
const ProgressThreshold = 100_000

// defaultProgressInterval is the minimum gap between progress lines.
const defaultProgressInterval = 2 * time.Second

// envThreshold reads ROUTERGEO_PROGRESS_THRESHOLD once; malformed or
// negative values keep the compiled default.
var (
	envThresholdOnce sync.Once
	envThresholdVal  int64 = ProgressThreshold
)

func envThreshold() int64 {
	envThresholdOnce.Do(func() {
		if raw := os.Getenv("ROUTERGEO_PROGRESS_THRESHOLD"); raw != "" {
			if n, err := strconv.ParseInt(raw, 10, 64); err == nil && n >= 0 {
				envThresholdVal = n
			}
		}
	})
	return envThresholdVal
}

// ProgressOption configures NewProgress.
type ProgressOption func(*Progress)

// WithProgressThreshold overrides the enable threshold for this reporter
// (0 logs every loop). It takes precedence over both the compiled
// default and ROUTERGEO_PROGRESS_THRESHOLD; TestProgressThresholdOption
// sets it on both sides of a loop's size.
func WithProgressThreshold(n int64) ProgressOption {
	return func(p *Progress) {
		if n >= 0 {
			p.enabled = p.total >= n
		}
	}
}

// WithProgressInterval overrides the minimum gap between progress lines;
// TestProgressPublishesRegardlessOfLogGate shortens it so every Add may
// tick.
func WithProgressInterval(d time.Duration) ProgressOption {
	return func(p *Progress) {
		if d > 0 {
			p.interval = d
		}
	}
}

// WithProgressBus redirects the reporter's progress events (default: the
// process-wide Events() bus). TestProgressPublishesRegardlessOfLogGate
// needs it to count, on a private bus, the progress.start event that
// NewProgress itself publishes.
func WithProgressBus(b *EventBus) ProgressOption {
	return func(p *Progress) {
		if b != nil {
			p.bus = b
		}
	}
}

// Progress emits rate-limited slog progress lines (with throughput and
// ETA) for a long loop, and mirrors each line as a "progress" event on
// the event bus whenever anything is subscribed — the live stream sees
// sweep progress even when the log gate keeps the terminal quiet. Add
// and Finish are safe to call from concurrent worker goroutines: the
// item count and the last-emit timestamp are atomics (a CAS elects the
// one goroutine that emits each line), and every other field is written
// once in NewProgress before the reporter is shared. When the reporter
// is disabled and nobody subscribes to the bus, Add costs one atomic add
// plus one atomic load, so the parallel measurement engine shares a
// single reporter across all of a sweep's workers.
type Progress struct {
	stage    string
	total    int64
	start    time.Time
	interval time.Duration
	enabled  bool
	bus      *EventBus
	done     atomic.Int64
	lastNano atomic.Int64
	logger   *slog.Logger
}

// NewProgress returns a reporter for a loop over total items under the
// given stage name. Loops under the threshold (ProgressThreshold,
// overridden by ROUTERGEO_PROGRESS_THRESHOLD or WithProgressThreshold)
// get a reporter that does not log — though it still publishes progress
// events while the bus has subscribers.
func NewProgress(stage string, total int64, opts ...ProgressOption) *Progress {
	p := &Progress{
		stage:    stage,
		total:    total,
		start:    time.Now(),
		interval: defaultProgressInterval,
		enabled:  total >= envThreshold(),
		bus:      defaultBus,
		logger:   slog.Default(),
	}
	for _, o := range opts {
		o(p)
	}
	p.lastNano.Store(p.start.UnixNano())
	if p.bus.Active() {
		p.bus.Publish("progress.start", "stage", p.stage, "total", p.total)
	}
	return p
}

// Add records n more completed items, emitting a progress line (and a
// bus event) if at least one interval elapsed since the previous one.
func (p *Progress) Add(n int64) {
	done := p.done.Add(n)
	if !p.enabled && !p.bus.Active() {
		return
	}
	now := time.Now()
	last := p.lastNano.Load()
	if now.UnixNano()-last < int64(p.interval) {
		return
	}
	// One goroutine wins the CAS and emits; the rest skip.
	if !p.lastNano.CompareAndSwap(last, now.UnixNano()) {
		return
	}
	elapsed := now.Sub(p.start).Seconds()
	rate := float64(done) / elapsed
	var eta time.Duration
	if rate > 0 && done < p.total {
		eta = time.Duration(float64(p.total-done) / rate * float64(time.Second))
	}
	pct := int(100 * done / max64(p.total, 1))
	if p.bus.Active() {
		p.bus.Publish("progress",
			"stage", p.stage,
			"done", done,
			"total", p.total,
			"pct", pct,
			"rate_per_s", int64(rate),
			"eta_ms", eta.Milliseconds(),
		)
	}
	if !p.enabled {
		return
	}
	p.logger.Info("progress",
		"stage", p.stage,
		"done", done,
		"total", p.total,
		"pct", pct,
		"rate_per_s", int64(rate),
		"eta", eta.Round(time.Second),
	)
}

// Finish emits a completion summary (a log line only for enabled
// reporters; a "progress.done" event whenever the bus is live).
func (p *Progress) Finish() {
	elapsed := time.Since(p.start)
	done := p.done.Load()
	rate := int64(0)
	if s := elapsed.Seconds(); s > 0 {
		rate = int64(float64(done) / s)
	}
	if p.bus.Active() {
		p.bus.Publish("progress.done",
			"stage", p.stage,
			"items", done,
			"wall_ms", elapsed.Milliseconds(),
			"rate_per_s", rate,
		)
	}
	if !p.enabled {
		return
	}
	p.logger.Info("progress done",
		"stage", p.stage,
		"items", done,
		"wall", elapsed.Round(time.Millisecond),
		"rate_per_s", rate,
	)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
