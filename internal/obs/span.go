package obs

import (
	"context"
	"log/slog"
	"sync"
	"time"
)

type ctxKey struct{}

// Span is one timed stage of a run. Spans form a tree: Start called with
// a context carrying a parent span attaches the child under it, so the
// run manifest reproduces the pipeline's call structure. A Span's
// mutating methods are safe for concurrent use; End is idempotent.
type Span struct {
	name  string
	start time.Time
	cpu0  time.Duration

	mu       sync.Mutex
	ended    bool
	end      time.Time
	cpu1     time.Duration
	items    int64
	attrs    map[string]any
	children []*Span
}

// Start begins a span named name and returns a derived context carrying
// it. If ctx already carries a span the new one becomes its child;
// otherwise the span is a detached root (harmless — it just won't appear
// in any manifest).
func Start(ctx context.Context, name string) (context.Context, *Span) {
	sp := newSpan(name)
	if parent := FromContext(ctx); parent != nil {
		parent.addChild(sp)
	}
	return context.WithValue(ctx, ctxKey{}, sp), sp
}

func newSpan(name string) *Span {
	if defaultBus.Active() {
		defaultBus.Publish("span.start", "stage", name)
	}
	return &Span{name: name, start: time.Now(), cpu0: processCPU()}
}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

func (s *Span) addChild(c *Span) {
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
}

// End closes the span, recording wall and CPU durations. Repeated calls
// keep the first end time. A debug-level slog line records the stage
// timing (free when debug logging is off).
func (s *Span) End() {
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.end = time.Now()
	s.cpu1 = processCPU()
	wall := s.end.Sub(s.start)
	items := s.items
	s.mu.Unlock()
	if defaultBus.Active() {
		defaultBus.Publish("span.end",
			"stage", s.name, "wall_ms", wall.Milliseconds(), "items", items)
	}
	slog.Debug("stage done", "stage", s.name, "wall", wall.Round(time.Microsecond), "items", items)
}

// Name returns the span's name.
func (s *Span) Name() string { return s.name }

// SetItems records how many items (addresses, targets, rows) the stage
// processed.
func (s *Span) SetItems(n int64) {
	s.mu.Lock()
	s.items = n
	s.mu.Unlock()
}

// SetAttr attaches an arbitrary key/value to the span (database name,
// monitor count, ...). Values must be JSON-encodable.
func (s *Span) SetAttr(key string, value any) {
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = map[string]any{}
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// SpanSnapshot is the JSON form of a span subtree, as embedded in run
// manifests.
type SpanSnapshot struct {
	Name     string         `json:"name"`
	Start    time.Time      `json:"start"`
	WallMs   float64        `json:"wall_ms"`
	CPUMs    float64        `json:"cpu_ms,omitempty"`
	Items    int64          `json:"items,omitempty"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []SpanSnapshot `json:"children,omitempty"`
}

// Snapshot copies the span and its children. Unended spans report wall
// time up to now and no CPU time.
func (s *Span) Snapshot() SpanSnapshot {
	s.mu.Lock()
	end := s.end
	if !s.ended {
		end = time.Now()
	}
	out := SpanSnapshot{
		Name:   s.name,
		Start:  s.start,
		WallMs: float64(end.Sub(s.start)) / float64(time.Millisecond),
		Items:  s.items,
	}
	if s.ended && s.cpu1 > s.cpu0 {
		out.CPUMs = float64(s.cpu1-s.cpu0) / float64(time.Millisecond)
	}
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]any, len(s.attrs))
		for k, v := range s.attrs {
			out.Attrs[k] = v
		}
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		out.Children = append(out.Children, c.Snapshot())
	}
	return out
}
