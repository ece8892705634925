package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Event-bus defaults. The ring is deliberately small: the stream is a
// live window, not a durable log — a reconnecting consumer replays what
// the ring still holds and resumes from there.
const (
	// DefaultEventRing is the number of recent events the bus retains
	// for Last-Event-ID replay.
	DefaultEventRing = 1024
	// DefaultSubBuffer is the per-subscriber channel depth. A consumer
	// that falls further behind than this starts losing events (counted,
	// never blocking the producer).
	DefaultSubBuffer = 256
)

// Event is one observability happening: a progress tick, a stage
// boundary, a generation swap, a breaker transition, a fault injection.
// Seq is a per-bus monotonically increasing id (the SSE event id), so a
// consumer can detect gaps and replay across reconnects.
type Event struct {
	Seq  uint64         `json:"seq"`
	Time time.Time      `json:"time"`
	Kind string         `json:"kind"`
	Data map[string]any `json:"data,omitempty"`
}

// EventBus is a bounded, drop-oldest publish/subscribe bus. Publish
// never blocks: the ring overwrites its oldest entry when full, and a
// subscriber whose channel is full loses that event (tallied on the
// subscription) rather than stalling the producer. That contract is what
// lets hot paths — lookups, reloads, sweep loops — publish unconditionally.
type EventBus struct {
	mu   sync.Mutex
	ring []Event // circular, fixed capacity
	head int     // index of the oldest retained event
	n    int     // retained count
	seq  uint64

	subs map[*EventSub]struct{}
	// active mirrors len(subs) > 0 so hot paths can skip event assembly
	// with one atomic load when nobody is listening.
	active atomic.Bool
}

// NewEventBus returns a bus retaining the last ringSize events
// (DefaultEventRing when <= 0).
func NewEventBus(ringSize int) *EventBus {
	if ringSize <= 0 {
		ringSize = DefaultEventRing
	}
	return &EventBus{
		ring: make([]Event, ringSize),
		subs: make(map[*EventSub]struct{}),
	}
}

// defaultBus is the process-wide bus: Progress ticks, Span boundaries
// and client-side resilience events land here, and every binary's debug
// listener streams it.
var defaultBus = NewEventBus(DefaultEventRing)

// Events returns the process-wide default bus.
func Events() *EventBus { return defaultBus }

// Publish assembles an event from alternating key/value pairs and
// publishes it on the default bus. See EventBus.Publish.
func Publish(kind string, kv ...any) uint64 { return defaultBus.Publish(kind, kv...) }

// Active reports whether the bus currently has any subscriber. Hot
// paths may use it to skip building events nobody will see; the ring
// still records everything actually published.
func (b *EventBus) Active() bool { return b.active.Load() }

// LastSeq returns the sequence number of the most recent event (0 before
// the first publish); TestEventBusConcurrent counts the publishes through
// it.
func (b *EventBus) LastSeq() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// Publish records one event and fans it out to every subscriber without
// ever blocking: a full subscriber channel drops the event for that
// subscriber only. kv is alternating key/value pairs (a trailing key
// without a value is dropped). Returns the event's sequence number.
func (b *EventBus) Publish(kind string, kv ...any) uint64 {
	var data map[string]any
	if len(kv) >= 2 {
		data = make(map[string]any, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			k, ok := kv[i].(string)
			if !ok {
				continue
			}
			data[k] = kv[i+1]
		}
	}
	ev := Event{Kind: kind, Data: data, Time: time.Now()}

	b.mu.Lock()
	b.seq++
	ev.Seq = b.seq
	if b.n < len(b.ring) {
		b.ring[(b.head+b.n)%len(b.ring)] = ev
		b.n++
	} else {
		// Full: overwrite the oldest.
		b.ring[b.head] = ev
		b.head = (b.head + 1) % len(b.ring)
	}
	for s := range b.subs {
		select {
		case s.ch <- ev:
		default:
			s.drops.Add(1)
		}
	}
	b.mu.Unlock()
	return ev.Seq
}

// Replay returns, oldest first, the retained events with Seq > after.
func (b *EventBus) Replay(after uint64) []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []Event
	for i := 0; i < b.n; i++ {
		ev := b.ring[(b.head+i)%len(b.ring)]
		if ev.Seq > after {
			out = append(out, ev)
		}
	}
	return out
}

// Subscribe registers a consumer with the given channel depth
// (DefaultSubBuffer when <= 0). The caller must Close the subscription;
// an abandoned one silently discards every event past its buffer.
func (b *EventBus) Subscribe(buffer int) *EventSub {
	if buffer <= 0 {
		buffer = DefaultSubBuffer
	}
	s := &EventSub{bus: b, ch: make(chan Event, buffer)}
	b.mu.Lock()
	b.subs[s] = struct{}{}
	b.active.Store(true)
	b.mu.Unlock()
	return s
}

// EventSub is one subscriber's view of a bus.
type EventSub struct {
	bus   *EventBus
	ch    chan Event
	drops atomic.Int64
	once  sync.Once
}

// C is the subscription's event channel. It is closed by Close.
func (s *EventSub) C() <-chan Event { return s.ch }

// Drops returns how many events this subscriber lost to a full buffer.
func (s *EventSub) Drops() int64 { return s.drops.Load() }

// Close unregisters the subscription and closes its channel. Safe to
// call more than once.
func (s *EventSub) Close() {
	s.once.Do(func() {
		b := s.bus
		b.mu.Lock()
		delete(b.subs, s)
		b.active.Store(len(b.subs) > 0)
		// Closing under the bus lock is safe: publishers only send while
		// holding it, and s is no longer in subs.
		close(s.ch)
		b.mu.Unlock()
	})
}
