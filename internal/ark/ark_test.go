package ark

import (
	"context"
	"reflect"
	"testing"

	"routergeo/internal/netsim"
	"routergeo/internal/par"
)

var (
	cachedWorld *netsim.World
	cachedColl  *Collection
)

func testSetup(t *testing.T) (*netsim.World, *Collection) {
	t.Helper()
	if cachedWorld == nil {
		cfg := netsim.DefaultConfig()
		cfg.Seed = 7
		cfg.ASes = 200
		w, err := netsim.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cachedWorld = w
		cachedColl = Collect(context.Background(), w, DefaultConfig())
	}
	return cachedWorld, cachedColl
}

func TestCollectCoversSubstantialFraction(t *testing.T) {
	w, c := testSetup(t)
	frac := float64(len(c.Interfaces)) / float64(w.NumInterfaces())
	// Traceroute reveals ingress interfaces along shortest paths only, so
	// coverage is partial (as with the real Ark), but a sweep across every
	// /24 from 60 monitors must see a large share of the core.
	if frac < 0.22 {
		t.Errorf("Ark sweep observed only %.1f%% of interfaces", 100*frac)
	}
	if frac >= 1.0 {
		t.Errorf("Ark sweep observed every interface; ingress bias is missing")
	}
}

func TestCollectedInterfacesAreDeduplicated(t *testing.T) {
	_, c := testSetup(t)
	seen := map[netsim.IfaceID]bool{}
	for _, id := range c.Interfaces {
		if seen[id] {
			t.Fatalf("interface %d appears twice", id)
		}
		seen[id] = true
	}
}

func TestCollectedSortedByAddress(t *testing.T) {
	w, c := testSetup(t)
	for i := 1; i < len(c.Interfaces); i++ {
		if w.Interfaces[c.Interfaces[i-1]].Addr >= w.Interfaces[c.Interfaces[i]].Addr {
			t.Fatal("interfaces not sorted by address")
		}
	}
}

func TestTraceCount(t *testing.T) {
	w, c := testSetup(t)
	cfg := DefaultConfig()
	want := len(w.RoutedSlash24s()) * monitorsPerTarget * cfg.Cycles
	if c.Traces != want {
		t.Errorf("Traces = %d, want %d", c.Traces, want)
	}
}

func TestAliasSetsGroupByRouter(t *testing.T) {
	w, c := testSetup(t)
	sets := AliasSets(w, c)
	total := 0
	for r, ifaces := range sets {
		total += len(ifaces)
		for _, id := range ifaces {
			if w.Interfaces[id].Router != r {
				t.Fatalf("interface %d grouped under wrong router", id)
			}
		}
	}
	if total != len(c.Interfaces) {
		t.Errorf("alias sets cover %d interfaces, collection has %d", total, len(c.Interfaces))
	}
	// Interfaces-per-router of the *observed* set should resemble the
	// paper's 1,638K/485K ≈ 3.4 (we accept a broad band).
	ratio := float64(total) / float64(len(sets))
	if ratio < 1.2 || ratio > 6 {
		t.Errorf("observed alias ratio = %.2f, want 1.2-6", ratio)
	}
}

func TestMonitorsPlacedAndAttached(t *testing.T) {
	w, c := testSetup(t)
	if len(c.Monitors) != DefaultConfig().Monitors {
		t.Fatalf("placed %d monitors", len(c.Monitors))
	}
	names := map[string]bool{}
	for _, m := range c.Monitors {
		if names[m.Name] {
			t.Errorf("duplicate monitor %s", m.Name)
		}
		names[m.Name] = true
		if int(m.Router) >= w.NumRouters() {
			t.Errorf("monitor %s attached to invalid router", m.Name)
		}
	}
}

func TestCollectDeterministic(t *testing.T) {
	w, _ := testSetup(t)
	a := Collect(context.Background(), w, Config{Monitors: 10, Seed: 3})
	b := Collect(context.Background(), w, Config{Monitors: 10, Seed: 3})
	if len(a.Interfaces) != len(b.Interfaces) {
		t.Fatalf("non-deterministic: %d vs %d interfaces", len(a.Interfaces), len(b.Interfaces))
	}
	for i := range a.Interfaces {
		if a.Interfaces[i] != b.Interfaces[i] {
			t.Fatal("non-deterministic interface sets")
		}
	}
}

func TestSmallerSweepSeesLess(t *testing.T) {
	w, c := testSetup(t)
	small := Collect(context.Background(), w, Config{Monitors: 3, Seed: 5})
	if len(small.Interfaces) >= len(c.Interfaces) {
		t.Errorf("3-monitor sweep (%d) saw at least as much as 60-monitor sweep (%d)",
			len(small.Interfaces), len(c.Interfaces))
	}
}

// TestCollectSameAtAnyWorkerCount builds the monitor trees on one worker
// and on four and requires the same collection.
func TestCollectSameAtAnyWorkerCount(t *testing.T) {
	w, _ := testSetup(t)
	collect := func(workers int) *Collection {
		par.SetParallelism(workers)
		defer par.SetParallelism(0)
		return Collect(context.Background(), w, DefaultConfig())
	}
	serial, parallel := collect(1), collect(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("Collect differs between 1 and 4 workers: %d and %d interfaces, %d and %d traces",
			len(serial.Interfaces), len(parallel.Interfaces), serial.Traces, parallel.Traces)
	}
}

// TestCollectAllocatesPerSweepNotPerTrace bounds a default-world sweep's
// allocations to under one per 50 traces: the monitor trees, the seen
// set and the growing interface list, with one path buffer serving
// every trace.
func TestCollectAllocatesPerSweepNotPerTrace(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the bound is asserted in normal builds")
	}
	w, err := netsim.Build(netsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var c *Collection
	allocs := testing.AllocsPerRun(1, func() { c = Collect(context.Background(), w, DefaultConfig()) })
	if limit := float64(c.Traces) / 50; allocs >= limit {
		t.Fatalf("Collect made %.0f allocations for %d traces, want under %.0f (one per 50 traces)",
			allocs, c.Traces, limit)
	}
}
