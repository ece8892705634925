package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Run ties one tool invocation's observability together: a root span the
// stage tree hangs off, a metrics registry, and the identifying bits
// (seed, config, counts) the manifest records.
type Run struct {
	tool string
	root *Span
	reg  *Registry

	mu     sync.Mutex
	seed   *int64
	config json.RawMessage
	counts map[string]int64
	taint  map[string]int64
}

// NewRun starts a run for the named tool. The root span starts now and
// ends when the manifest is built.
func NewRun(tool string) *Run {
	return &Run{
		tool:   tool,
		root:   newSpan(tool),
		reg:    NewRegistry(),
		counts: map[string]int64{},
	}
}

// Context returns a context carrying the run's root span, so obs.Start
// calls downstream attach their stages to this run.
func (r *Run) Context(ctx context.Context) context.Context {
	return context.WithValue(ctx, ctxKey{}, r.root)
}

// Registry returns the run's metrics registry.
func (r *Run) Registry() *Registry { return r.reg }

// SetSeed records the world seed the run used.
func (r *Run) SetSeed(seed int64) {
	r.mu.Lock()
	r.seed = &seed
	r.mu.Unlock()
}

// SetConfig records the run's configuration; v must be JSON-encodable.
func (r *Run) SetConfig(v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("obs: encode run config: %w", err)
	}
	r.mu.Lock()
	r.config = raw
	r.mu.Unlock()
	return nil
}

// SetCount records a named size of the run's inputs or outputs
// (ark_addresses, targets, ...).
func (r *Run) SetCount(name string, n int64) {
	r.mu.Lock()
	r.counts[name] = n
	r.mu.Unlock()
}

// SetTaint records a named count of results degraded by infrastructure
// trouble rather than by the data itself (e.g. remote lookups served by
// a fallback, or misses fabricated by an outage). A zero n is recorded
// too: "checked, clean" and "never checked" read differently.
func (r *Run) SetTaint(name string, n int64) {
	r.mu.Lock()
	if r.taint == nil {
		r.taint = map[string]int64{}
	}
	r.taint[name] = n
	r.mu.Unlock()
}

// Manifest is the machine-readable run record written at exit. Revision
// is the source revision the binary was built from (see revision); it is
// empty, and left out, when the build stamped none, as under go run and
// go test.
type Manifest struct {
	Tool      string           `json:"tool"`
	GoVersion string           `json:"go_version"`
	Revision  string           `json:"revision,omitempty"`
	Hostname  string           `json:"hostname,omitempty"`
	PID       int              `json:"pid"`
	Argv      []string         `json:"argv"`
	Start     time.Time        `json:"start"`
	WallMs    float64          `json:"wall_ms"`
	Seed      *int64           `json:"seed,omitempty"`
	Config    json.RawMessage  `json:"config,omitempty"`
	Counts    map[string]int64 `json:"counts,omitempty"`
	// Taint flags results degraded by outages during the run — non-empty
	// means the numbers are reproducible but were produced under duress
	// (see Run.SetTaint).
	Taint   map[string]int64 `json:"taint,omitempty"`
	Stages  SpanSnapshot     `json:"stages"`
	Metrics *Snapshot        `json:"metrics,omitempty"`
}

// Manifest ends the root span and builds the run record. Safe to call
// more than once; the stage tree freezes at the first call.
func (r *Run) Manifest() Manifest {
	r.root.End()
	host, _ := os.Hostname()
	r.mu.Lock()
	m := Manifest{
		Tool:      r.tool,
		GoVersion: runtime.Version(),
		Hostname:  host,
		PID:       os.Getpid(),
		Argv:      os.Args,
		Start:     r.root.start,
		Seed:      r.seed,
		Config:    r.config,
		Stages:    r.root.Snapshot(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		m.Revision = revision(bi.Settings)
	}
	if len(r.counts) > 0 {
		m.Counts = make(map[string]int64, len(r.counts))
		for k, v := range r.counts {
			m.Counts[k] = v
		}
	}
	if len(r.taint) > 0 {
		m.Taint = make(map[string]int64, len(r.taint))
		for k, v := range r.taint {
			m.Taint[k] = v
		}
	}
	r.mu.Unlock()
	m.WallMs = m.Stages.WallMs
	if snap := r.reg.Snapshot(); !snap.Empty() {
		m.Metrics = &snap
	}
	return m
}

// revision is vcs.revision from a binary's build settings, with "-dirty"
// appended when vcs.modified is true, or "" when no revision is stamped.
func revision(settings []debug.BuildSetting) string {
	var rev, dirty string
	for _, s := range settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "-dirty"
		}
	}
	if rev == "" {
		return ""
	}
	return rev + dirty
}

// WriteManifest writes the run manifest as indented JSON to path.
func (r *Run) WriteManifest(path string) error {
	m := r.Manifest()
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: encode manifest: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("obs: write manifest: %w", err)
	}
	return nil
}
