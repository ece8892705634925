package obs

import (
	"testing"
	"time"
)

// drainKinds collects the kinds currently buffered on sub.
func drainKinds(sub *EventSub) map[string]int {
	kinds := map[string]int{}
	for {
		select {
		case ev := <-sub.C():
			kinds[ev.Kind]++
		default:
			return kinds
		}
	}
}

// TestProgressThresholdOption: WithProgressThreshold flips the log gate
// independently of the loop size.
func TestProgressThresholdOption(t *testing.T) {
	if p := NewProgress("small", 10); p.enabled {
		t.Error("10-item loop should be disabled by default")
	}
	if p := NewProgress("small", 10, WithProgressThreshold(5)); !p.enabled {
		t.Error("threshold 5 should enable a 10-item loop")
	}
	if p := NewProgress("big", ProgressThreshold); !p.enabled {
		t.Error("threshold-sized loop should be enabled by default")
	}
	if p := NewProgress("big", ProgressThreshold, WithProgressThreshold(ProgressThreshold*2)); p.enabled {
		t.Error("raised threshold should disable a threshold-sized loop")
	}
}

// TestProgressPublishesRegardlessOfLogGate: a disabled (quiet) reporter
// still streams progress events while the bus has a subscriber.
func TestProgressPublishesRegardlessOfLogGate(t *testing.T) {
	bus := NewEventBus(256)
	// Big enough for every tick plus start/done — nothing may drop.
	sub := bus.Subscribe(256)
	defer sub.Close()

	p := NewProgress("quiet.sweep", 100,
		WithProgressBus(bus),
		WithProgressInterval(time.Nanosecond))
	if p.enabled {
		t.Fatal("reporter unexpectedly enabled")
	}
	for i := 0; i < 100; i++ {
		p.Add(1)
		time.Sleep(time.Microsecond) // let the interval elapse between adds
	}
	p.Finish()

	kinds := drainKinds(sub)
	if kinds["progress.start"] != 1 {
		t.Errorf("progress.start count = %d, want 1", kinds["progress.start"])
	}
	if kinds["progress"] == 0 {
		t.Error("no progress tick events published")
	}
	if kinds["progress.done"] != 1 {
		t.Errorf("progress.done count = %d, want 1", kinds["progress.done"])
	}
}

// TestProgressSilentWhenNobodyListens: with logging gated off and no
// subscriber, nothing is published (the hot path bails on one atomic
// load).
func TestProgressSilentWhenNobodyListens(t *testing.T) {
	bus := NewEventBus(64)
	p := NewProgress("idle.sweep", 100,
		WithProgressBus(bus),
		WithProgressInterval(time.Nanosecond))
	for i := 0; i < 100; i++ {
		p.Add(1)
	}
	p.Finish()
	if n := bus.LastSeq(); n != 0 {
		t.Errorf("published %d events with no subscriber, want 0", n)
	}
}

// TestSpanEvents: Start/End publish span boundaries while subscribed.
func TestSpanEvents(t *testing.T) {
	sub := defaultBus.Subscribe(16)
	defer sub.Close()

	sp := newSpan("evented.stage")
	sp.SetItems(3)
	sp.End()

	kinds := drainKinds(sub)
	if kinds["span.start"] == 0 || kinds["span.end"] == 0 {
		t.Errorf("span events = %v, want span.start and span.end", kinds)
	}
}
