package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// DefaultSSEHeartbeat is the idle-comment interval that keeps proxies
// and clients from reaping a quiet stream.
const DefaultSSEHeartbeat = 15 * time.Second

// SSEOption configures NewSSEHandler.
type SSEOption func(*SSEHandler)

// WithSSEHeartbeat sets the heartbeat comment interval.
func WithSSEHeartbeat(d time.Duration) SSEOption {
	return func(h *SSEHandler) {
		if d > 0 {
			h.heartbeat = d
		}
	}
}

// WithSSEStop closes every open stream when ch closes — the server's
// drain signal, so long-lived streams never hold a graceful shutdown
// hostage.
func WithSSEStop(ch <-chan struct{}) SSEOption {
	return func(h *SSEHandler) { h.stop = ch }
}

// WithSSERegistry tallies stream lifecycle in reg: events.streams
// (gauge, currently open), events.sent and events.dropped (counters).
func WithSSERegistry(reg *Registry) SSEOption {
	return func(h *SSEHandler) {
		h.streams = reg.Gauge("events.streams")
		h.sent = reg.Counter("events.sent")
		h.lost = reg.Counter("events.dropped")
	}
}

// SSEHandler streams an EventBus as Server-Sent Events
// (text/event-stream): one message per bus event with its sequence
// number as the SSE id, periodic heartbeat comments, and Last-Event-ID
// replay from the bus ring on reconnect (also accepted as a
// ?last_event_id= query parameter for plain curl). A consumer that
// falls DefaultSubBuffer events behind loses events rather than slowing
// anyone down; losses are reported in-band as ": dropped N" comments and
// counted.
type SSEHandler struct {
	bus       *EventBus
	heartbeat time.Duration
	stop      <-chan struct{}

	streams *Gauge
	sent    *Counter
	lost    *Counter
}

// NewSSEHandler streams bus. See the SSEOptions for heartbeat,
// stop-channel and metrics wiring.
func NewSSEHandler(bus *EventBus, opts ...SSEOption) *SSEHandler {
	h := &SSEHandler{
		bus:       bus,
		heartbeat: DefaultSSEHeartbeat,
	}
	for _, o := range opts {
		o(h)
	}
	return h
}

// lastEventID resolves the resume position: the standard Last-Event-ID
// header wins, then ?last_event_id=. 0 means "no replay".
func lastEventID(r *http.Request) uint64 {
	raw := r.Header.Get("Last-Event-ID")
	if raw == "" {
		raw = r.URL.Query().Get("last_event_id")
	}
	if raw == "" {
		return 0
	}
	id, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0
	}
	return id
}

// writeEvent emits one SSE message. Data is a single JSON line, so a
// plain `curl -N` shows one event per block.
func writeEvent(w http.ResponseWriter, ev Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Kind, data)
	return err
}

// ServeHTTP implements http.Handler.
func (h *SSEHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "text/event-stream; charset=utf-8")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	// A transport that cannot stream (no flush support) fails here, once,
	// rather than buffering events forever.
	if err := rc.Flush(); err != nil {
		return
	}

	if h.streams != nil {
		h.streams.Add(1)
		defer h.streams.Add(-1)
	}

	// Subscribe before replaying so no event can fall between the ring
	// read and the live channel; the seen guard below drops the overlap.
	sub := h.bus.Subscribe(DefaultSubBuffer)
	defer sub.Close()

	// Reconnect hint for EventSource-style consumers.
	if _, err := fmt.Fprintf(w, "retry: 2000\n\n"); err != nil {
		return
	}

	var seen uint64
	if after := lastEventID(r); after > 0 {
		for _, ev := range h.bus.Replay(after) {
			if err := writeEvent(w, ev); err != nil {
				return
			}
			seen = ev.Seq
			if h.sent != nil {
				h.sent.Inc()
			}
		}
	}
	if err := rc.Flush(); err != nil {
		return
	}

	hb := time.NewTicker(h.heartbeat)
	defer hb.Stop()
	var reportedDrops int64
	for {
		select {
		case ev, ok := <-sub.C():
			if !ok {
				return
			}
			if ev.Seq <= seen {
				continue // already sent during replay
			}
			if err := writeEvent(w, ev); err != nil {
				return
			}
			seen = ev.Seq
			if h.sent != nil {
				h.sent.Inc()
			}
			if err := rc.Flush(); err != nil {
				return
			}
		case <-hb.C:
			if d := sub.Drops(); d > reportedDrops {
				if h.lost != nil {
					h.lost.Add(d - reportedDrops)
				}
				if _, err := fmt.Fprintf(w, ": dropped %d\n\n", d-reportedDrops); err != nil {
					return
				}
				reportedDrops = d
			}
			if _, err := fmt.Fprintf(w, ": heartbeat\n\n"); err != nil {
				return
			}
			if err := rc.Flush(); err != nil {
				return
			}
		case <-r.Context().Done():
			return
		case <-h.stop:
			// Server draining: end the stream cleanly so shutdown can
			// finish. A comment names the reason for humans watching.
			_, _ = fmt.Fprintf(w, ": server draining, stream closed\n\n")
			_ = rc.Flush()
			return
		}
	}
}
