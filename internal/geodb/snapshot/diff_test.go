package snapshot

import (
	"sort"
	"testing"

	"routergeo/internal/geo"
	"routergeo/internal/geodb"
	"routergeo/internal/ipx"
)

func mustBuild(t testing.TB, name string, add func(b *geodb.Builder)) *geodb.DB {
	t.Helper()
	b := geodb.NewBuilder(name)
	add(b)
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestDiffIdenticalIsEmpty(t *testing.T) {
	a := buildRandom(t, 31, 2000)
	b := buildRandom(t, 31, 2000)
	d := Compare(a, b)
	if len(d.Changes) != 0 || d.AddedAddrs+d.RemovedAddrs+d.MovedAddrs != 0 {
		t.Fatalf("identical databases produced %d changes", len(d.Changes))
	}
	if d.UnchangedAddrs == 0 {
		t.Fatal("identical databases report no unchanged coverage")
	}
	if d.Distances != nil {
		t.Fatal("no moves, but a distance ECDF exists")
	}
}

func TestDiffClassification(t *testing.T) {
	dallas := geodb.Record{
		Country: "US", City: "Dallas",
		Coord: geo.Coordinate{Lat: 32.7767, Lon: -96.797}, Resolution: geodb.ResolutionCity,
		BlockBits: 24,
	}
	miami := geodb.Record{
		Country: "US", City: "Miami",
		Coord: geo.Coordinate{Lat: 25.7617, Lon: -80.1918}, Resolution: geodb.ResolutionCity,
		BlockBits: 24,
	}
	de := geodb.Record{Country: "DE", Resolution: geodb.ResolutionCountry, BlockBits: 24}
	old := mustBuild(t, "old", func(b *geodb.Builder) {
		b.AddPrefix(0, ipx.MustParsePrefix("10.0.0.0/24"), dallas) // will move to Miami
		b.AddPrefix(0, ipx.MustParsePrefix("10.1.0.0/24"), de)     // will be removed
		b.AddPrefix(0, ipx.MustParsePrefix("10.2.0.0/24"), de)     // unchanged
	})
	niu := mustBuild(t, "new", func(b *geodb.Builder) {
		b.AddPrefix(0, ipx.MustParsePrefix("10.0.0.0/24"), miami)
		b.AddPrefix(0, ipx.MustParsePrefix("10.2.0.0/24"), de)
		b.AddPrefix(0, ipx.MustParsePrefix("10.3.0.0/24"), de) // added
	})
	d := Compare(old, niu)
	if d.AddedSegments != 1 || d.RemovedSegments != 1 || d.MovedSegments != 1 || d.UnchangedSegments != 1 {
		t.Fatalf("segments = added %d removed %d moved %d unchanged %d, want 1 each",
			d.AddedSegments, d.RemovedSegments, d.MovedSegments, d.UnchangedSegments)
	}
	if d.AddedAddrs != 256 || d.RemovedAddrs != 256 || d.MovedAddrs != 256 || d.UnchangedAddrs != 256 {
		t.Fatalf("addrs = added %d removed %d moved %d unchanged %d, want 256 each",
			d.AddedAddrs, d.RemovedAddrs, d.MovedAddrs, d.UnchangedAddrs)
	}
	if d.Distances == nil || d.Distances.N() != 1 {
		t.Fatal("one city-to-city move must yield one distance sample")
	}
	want := dallas.Coord.DistanceKm(miami.Coord)
	if got := d.Distances.Max(); got != want {
		t.Fatalf("move distance = %v, want %v", got, want)
	}
	for _, c := range d.Changes {
		switch c.Kind {
		case Moved:
			if c.From != dallas || c.To != miami {
				t.Fatalf("moved segment records wrong: %+v", c)
			}
		case Removed:
			if c.From != de || c.To != (geodb.Record{}) {
				t.Fatalf("removed segment records wrong: %+v", c)
			}
		case Added:
			if c.From != (geodb.Record{}) || c.To != de {
				t.Fatalf("added segment records wrong: %+v", c)
			}
		}
	}
}

func TestDiffCountryMoveHasNoDistance(t *testing.T) {
	de := geodb.Record{Country: "DE", Resolution: geodb.ResolutionCountry}
	fr := geodb.Record{Country: "FR", Resolution: geodb.ResolutionCountry}
	old := mustBuild(t, "old", func(b *geodb.Builder) {
		b.AddPrefix(0, ipx.MustParsePrefix("10.0.0.0/24"), de)
	})
	niu := mustBuild(t, "new", func(b *geodb.Builder) {
		b.AddPrefix(0, ipx.MustParsePrefix("10.0.0.0/24"), fr)
	})
	d := Compare(old, niu)
	if d.MovedSegments != 1 {
		t.Fatalf("moved segments = %d, want 1", d.MovedSegments)
	}
	if d.Distances != nil {
		t.Fatal("country-only move must not produce a distance sample")
	}
}

func TestFlattenMergesFragmentation(t *testing.T) {
	de := geodb.Record{Country: "DE", Resolution: geodb.ResolutionCountry, BlockBits: 24}
	frag := mustBuild(t, "frag", func(b *geodb.Builder) {
		b.Add(0, ipx.Range{
			Lo: ipx.MustParseAddr("10.0.0.0"),
			Hi: ipx.MustParseAddr("10.0.0.127"),
		}, de)
		b.Add(0, ipx.Range{
			Lo: ipx.MustParseAddr("10.0.0.128"),
			Hi: ipx.MustParseAddr("10.0.0.255"),
		}, de)
	})
	whole := mustBuild(t, "whole", func(b *geodb.Builder) {
		b.AddPrefix(0, ipx.MustParsePrefix("10.0.0.0/24"), de)
	})
	ef, ew := Flatten(frag), Flatten(whole)
	if len(ef) != len(ew) {
		t.Fatalf("flatten lengths differ: %d vs %d", len(ef), len(ew))
	}
	for i := range ef {
		if ef[i] != ew[i] {
			t.Fatalf("entry %d differs: %+v vs %+v", i, ef[i], ew[i])
		}
	}
	if d := Compare(frag, whole); len(d.Changes) != 0 {
		t.Fatalf("equivalent databases diff as %d changes", len(d.Changes))
	}
}

// TestDiffApplyRoundTrip is the engine's core promise: the diff loses
// nothing — replaying Compare(a, b) onto a reconstructs b's flattened
// range set exactly, across random unrelated databases.
func TestDiffApplyRoundTrip(t *testing.T) {
	cases := []struct{ seedA, seedB int64 }{
		{7, 7}, {7, 8}, {3, 41}, {100, 5},
	}
	for _, tc := range cases {
		a := buildRandom(t, tc.seedA, 3000)
		b := buildRandom(t, tc.seedB, 2500)
		d := Compare(a, b)
		got := applyDiff(d, a)
		want := Flatten(b)
		if len(got) != len(want) {
			t.Fatalf("seeds %d/%d: apply produced %d entries, want %d",
				tc.seedA, tc.seedB, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seeds %d/%d: entry %d differs:\n got %+v\nwant %+v",
					tc.seedA, tc.seedB, i, got[i], want[i])
			}
		}
	}
}

// applyDiff replays d onto the older database and returns the flattened
// entries of the newer one: applyDiff(Compare(a, b), a) equals
// Flatten(b). It is the reference for the diff engine's round-trip
// property — the diff loses nothing.
func applyDiff(d *Diff, old *geodb.DB) []Entry {
	var out []Entry
	ci := 0
	for _, e := range Flatten(old) {
		lo := uint64(e.Range.Lo)
		hi := uint64(e.Range.Hi)
		for lo <= hi {
			for ci < len(d.Changes) && uint64(d.Changes[ci].Range.Hi) < lo {
				ci++
			}
			if ci == len(d.Changes) || uint64(d.Changes[ci].Range.Lo) > hi {
				out = append(out, Entry{Range: ipx.Range{Lo: ipx.Addr(lo), Hi: ipx.Addr(hi)}, Rec: e.Rec})
				break
			}
			c := d.Changes[ci]
			if clo := uint64(c.Range.Lo); clo > lo {
				out = append(out, Entry{Range: ipx.Range{Lo: ipx.Addr(lo), Hi: ipx.Addr(clo - 1)}, Rec: e.Rec})
				lo = clo
			}
			cut := uint64(c.Range.Hi)
			if cut > hi {
				cut = hi
			}
			if c.Kind == Moved {
				out = append(out, Entry{Range: ipx.Range{Lo: ipx.Addr(lo), Hi: ipx.Addr(cut)}, Rec: c.To})
			}
			// Removed segments drop; Added segments never overlap old
			// coverage and are spliced in below.
			lo = cut + 1
		}
	}
	for _, c := range d.Changes {
		if c.Kind == Added {
			out = append(out, Entry{Range: c.Range, Rec: c.To})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Range.Lo < out[j].Range.Lo })
	// Re-merge across splice points so the result is in flattened form.
	merged := out[:0]
	for _, e := range out {
		if n := len(merged); n > 0 &&
			merged[n-1].Rec == e.Rec && uint64(merged[n-1].Range.Hi)+1 == uint64(e.Range.Lo) {
			merged[n-1].Range.Hi = e.Range.Hi
			continue
		}
		merged = append(merged, e)
	}
	return merged
}

func TestDiffDeterministic(t *testing.T) {
	a := buildRandom(t, 9, 2000)
	b := buildRandom(t, 10, 2000)
	d1 := Compare(a, b)
	d2 := Compare(a, b)
	if len(d1.Changes) != len(d2.Changes) {
		t.Fatal("repeated Compare disagrees with itself")
	}
	for i := range d1.Changes {
		if d1.Changes[i] != d2.Changes[i] {
			t.Fatalf("change %d differs across runs", i)
		}
	}
}

// BenchmarkDiff measures the sweep over two 50k-range databases with
// partial overlap — the per-epoch cost of the longitudinal series.
func BenchmarkDiff(b *testing.B) {
	dba := buildRandom(b, 21, 50000)
	dbb := buildRandom(b, 22, 50000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := Compare(dba, dbb); len(d.Changes) == 0 {
			b.Fatal("unrelated databases diffed empty")
		}
	}
}
