package obs

// Race coverage for the observability surfaces the parallel measurement
// engine leans on: many worker goroutines sharing one Progress reporter
// and writing attributes on one Span. Run with -race (make check does).

import (
	"bytes"
	"fmt"
	"log/slog"
	"sync"
	"testing"
	"time"
)

func TestProgressAddConcurrent(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress("race.loop", ProgressThreshold)
	p.logger = slog.New(slog.NewTextHandler(&buf, nil))
	p.interval = time.Nanosecond // every Add is eligible to emit

	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				p.Add(1)
			}
		}()
	}
	wg.Wait()
	p.Finish()
	if done := p.done.Load(); done != workers*perWorker {
		t.Errorf("done = %d, want %d", done, workers*perWorker)
	}
	if buf.Len() == 0 {
		t.Error("no progress lines emitted")
	}
}

func TestSpanWritesConcurrent(t *testing.T) {
	sp := newSpan("race.span")
	const workers = 8
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func(i int) {
			defer wg.Done()
			sp.SetAttr(fmt.Sprintf("worker_%d", i), i)
			sp.SetAttr("shared", i)
			sp.SetItems(100)
			_ = sp.Snapshot() // concurrent reads race-clean too
		}(i)
	}
	wg.Wait()
	sp.End()
	snap := sp.Snapshot()
	if snap.Items != 100 {
		t.Errorf("items = %d, want 100", snap.Items)
	}
	if len(snap.Attrs) != workers+1 {
		t.Errorf("attrs = %d, want %d", len(snap.Attrs), workers+1)
	}
}
