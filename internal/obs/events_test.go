package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestEventBusPublishSubscribe(t *testing.T) {
	b := NewEventBus(16)
	sub := b.Subscribe(8)
	defer sub.Close()

	seq := b.Publish("test", "a", 1, "b", "two")
	if seq != 1 {
		t.Fatalf("first seq = %d, want 1", seq)
	}
	select {
	case ev := <-sub.C():
		if ev.Kind != "test" || ev.Seq != 1 {
			t.Fatalf("got %+v", ev)
		}
		if ev.Data["a"] != 1 || ev.Data["b"] != "two" {
			t.Fatalf("data = %+v", ev.Data)
		}
		if ev.Time.IsZero() {
			t.Fatal("event has no timestamp")
		}
	case <-time.After(time.Second):
		t.Fatal("event not delivered")
	}
}

func TestEventBusOddPairsAndNonStringKeys(t *testing.T) {
	b := NewEventBus(4)
	b.Publish("odd", "key") // trailing key without value: dropped
	b.Publish("bad", 42, "v", "k", "kept")
	evs := b.Replay(0)
	if len(evs) != 2 {
		t.Fatalf("replay = %d events, want 2", len(evs))
	}
	if len(evs[0].Data) != 0 {
		t.Errorf("odd pair produced data %+v", evs[0].Data)
	}
	if len(evs[1].Data) != 1 || evs[1].Data["k"] != "kept" {
		t.Errorf("non-string key handling wrong: %+v", evs[1].Data)
	}
}

func TestEventBusRingDropsOldest(t *testing.T) {
	b := NewEventBus(4)
	for i := 0; i < 10; i++ {
		b.Publish("e", "i", i)
	}
	evs := b.Replay(0)
	if len(evs) != 4 {
		t.Fatalf("ring holds %d, want 4", len(evs))
	}
	for i, ev := range evs {
		want := uint64(7 + i) // seqs 7..10 survive
		if ev.Seq != want {
			t.Errorf("replay[%d].Seq = %d, want %d", i, ev.Seq, want)
		}
	}
	if got := b.Replay(8); len(got) != 2 || got[0].Seq != 9 {
		t.Errorf("Replay(8) = %+v, want seqs 9,10", got)
	}
	if b.LastSeq() != 10 {
		t.Errorf("LastSeq = %d, want 10", b.LastSeq())
	}
}

// TestEventBusNeverBlocks pins the core contract: a subscriber that
// never reads cannot stall Publish. The publisher must finish promptly
// with the stalled subscriber's losses counted.
func TestEventBusNeverBlocks(t *testing.T) {
	b := NewEventBus(8)
	stalled := b.Subscribe(2)
	defer stalled.Close()

	done := make(chan struct{})
	go func() {
		for i := 0; i < 1000; i++ {
			b.Publish("flood", "i", i)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Publish blocked on a stalled subscriber")
	}
	if got := stalled.Drops(); got != 998 {
		t.Errorf("stalled subscriber drops = %d, want 998", got)
	}
	if got := b.LastSeq(); got != 1000 {
		t.Errorf("bus published = %d, want 1000", got)
	}
}

func TestEventBusActive(t *testing.T) {
	b := NewEventBus(4)
	if b.Active() {
		t.Fatal("fresh bus reports active")
	}
	s1 := b.Subscribe(1)
	s2 := b.Subscribe(1)
	if !b.Active() {
		t.Fatal("bus with subscribers reports inactive")
	}
	s1.Close()
	if !b.Active() {
		t.Fatal("one subscriber left but inactive")
	}
	s2.Close()
	if b.Active() {
		t.Fatal("all subscribers closed but still active")
	}
	s2.Close() // idempotent
}

func TestEventBusCloseEndsChannel(t *testing.T) {
	b := NewEventBus(4)
	sub := b.Subscribe(4)
	sub.Close()
	if _, ok := <-sub.C(); ok {
		t.Fatal("channel still open after Close")
	}
	b.Publish("after", "k", "v") // must not panic on closed subscription
}

// TestEventBusConcurrent exercises publish/subscribe/close from many
// goroutines under -race.
func TestEventBusConcurrent(t *testing.T) {
	b := NewEventBus(64)
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b.Publish("k"+fmt.Sprint(p), "i", i)
			}
		}(p)
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub := b.Subscribe(16)
			defer sub.Close()
			deadline := time.After(2 * time.Second)
			for n := 0; n < 100; n++ {
				select {
				case _, ok := <-sub.C():
					if !ok {
						return
					}
				case <-deadline:
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := b.LastSeq(); got != 2000 {
		t.Fatalf("published = %d, want 2000", got)
	}
	seqs := b.Replay(0)
	for i := 1; i < len(seqs); i++ {
		if seqs[i].Seq != seqs[i-1].Seq+1 {
			t.Fatalf("ring seqs not contiguous: %d then %d", seqs[i-1].Seq, seqs[i].Seq)
		}
	}
}
