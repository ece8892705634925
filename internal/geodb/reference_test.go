package geodb

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"routergeo/internal/geo"
	"routergeo/internal/ipx"
)

// referenceBuild is Build as it was before the one-pass merge: every
// entry subtracts a sorted, merged coverage list, interns its record if
// anything is left, and is then inserted into the list, which is rebuilt
// each time. The fragments are sorted by Lo and checked for overlap at
// the end. Build must reproduce its parts exactly, record table order
// included, because the snapshot bytes follow from them.
func referenceBuild(b *Builder) (los, his []ipx.Addr, vals []uint32, recs []Record, err error) {
	var order []int
	for l := range b.layers {
		order = append(order, l)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(order)))

	recIdx := map[Record]uint32{}
	intern := func(rec Record) uint32 {
		if i, ok := recIdx[rec]; ok {
			return i
		}
		i := uint32(len(recs))
		recIdx[rec] = i
		recs = append(recs, rec)
		return i
	}
	type frag struct {
		r ipx.Range
		v uint32
	}
	var frags []frag
	var covered coverage
	for _, l := range order {
		entries := b.layers[l]
		sort.Slice(entries, func(i, j int) bool { return entries[i].r.Lo < entries[j].r.Lo })
		for i := 1; i < len(entries); i++ {
			if entries[i].r.Lo <= entries[i-1].r.Hi {
				return nil, nil, nil, nil, fmt.Errorf("geodb: %s layer %d: overlapping records %v and %v",
					b.name, l, entries[i-1].r, entries[i].r)
			}
		}
		for _, e := range entries {
			fs := covered.subtract(e.r)
			if len(fs) > 0 {
				ri := intern(e.rec)
				for _, r := range fs {
					frags = append(frags, frag{r: r, v: ri})
				}
			}
			covered.insert(e.r)
		}
	}
	sort.Slice(frags, func(i, j int) bool { return frags[i].r.Lo < frags[j].r.Lo })
	for i, f := range frags {
		if i > 0 && f.r.Lo <= frags[i-1].r.Hi {
			return nil, nil, nil, nil, fmt.Errorf("geodb: %s: overlapping fragments %v and %v",
				b.name, frags[i-1].r, f.r)
		}
		los, his, vals = append(los, f.r.Lo), append(his, f.r.Hi), append(vals, f.v)
	}
	return los, his, vals, recs, nil
}

// coverage tracks the union of inserted ranges as a sorted, merged list.
type coverage struct {
	rs []ipx.Range
}

// subtract returns the parts of r not yet covered.
func (c *coverage) subtract(r ipx.Range) []ipx.Range {
	var out []ipx.Range
	lo := r.Lo
	i := sort.Search(len(c.rs), func(i int) bool { return c.rs[i].Hi >= r.Lo })
	for ; i < len(c.rs) && c.rs[i].Lo <= r.Hi; i++ {
		if c.rs[i].Lo > lo {
			out = append(out, ipx.Range{Lo: lo, Hi: c.rs[i].Lo - 1})
		}
		if c.rs[i].Hi >= r.Hi {
			return out
		}
		lo = c.rs[i].Hi + 1
	}
	if lo <= r.Hi {
		out = append(out, ipx.Range{Lo: lo, Hi: r.Hi})
	}
	return out
}

// insert adds r to the covered set, merging neighbours.
func (c *coverage) insert(r ipx.Range) {
	i := sort.Search(len(c.rs), func(i int) bool { return c.rs[i].Lo > r.Lo })
	c.rs = append(c.rs, ipx.Range{})
	copy(c.rs[i+1:], c.rs[i:])
	c.rs[i] = r
	// Merge around i.
	merged := c.rs[:0]
	for _, cur := range c.rs {
		n := len(merged)
		if n > 0 && (cur.Lo <= merged[n-1].Hi || (merged[n-1].Hi != ^ipx.Addr(0) && cur.Lo == merged[n-1].Hi+1)) {
			if cur.Hi > merged[n-1].Hi {
				merged[n-1].Hi = cur.Hi
			}
			continue
		}
		merged = append(merged, cur)
	}
	c.rs = merged
}

// layered is one Builder.Add call.
type layered struct {
	layer int
	r     ipx.Range
	rec   Record
}

// refRecords is the record pool the generated inputs draw from, so one
// record often sits on several layers.
var refRecords = []Record{
	{Country: "US", Resolution: ResolutionCountry, BlockBits: 16},
	{Country: "US", City: "Dallas", Coord: geo.Coordinate{Lat: 32.78, Lon: -96.8}, Resolution: ResolutionCity, BlockBits: 24},
	{Country: "DE", City: "Frankfurt", Coord: geo.Coordinate{Lat: 50.11, Lon: 8.68}, Resolution: ResolutionCity, BlockBits: 24},
	{Country: "FR", City: "Paris", Coord: geo.Coordinate{Lat: 48.86, Lon: 2.35}, Resolution: ResolutionCity, BlockBits: 32},
	{Country: "BR", Resolution: ResolutionCountry, BlockBits: 19},
	{Country: "JP", City: "Tokyo", Coord: geo.Coordinate{Lat: 35.68, Lon: 139.69}, Resolution: ResolutionCity, BlockBits: 32},
	{Country: "ZA", Resolution: ResolutionCountry, BlockBits: 8},
}

// decodeLayered turns five bytes into one entry: a layer in 0..3, a start
// in one of two 8 KiB windows, one at 0.0.0.0 and one ending at
// 255.255.255.255, a span of up to 255 addresses (or 4 KiB when the wide
// bit is set, so an entry can outlive several above it), and a record
// from refRecords. Small windows make entries abut, nest and shadow each
// other completely. A draw that overlaps an earlier one on its layer is
// dropped, so Build is left to succeed.
func decodeLayered(data []byte) []layered {
	const window = 1 << 13
	var out []layered
draw:
	for ; len(data) >= 5; data = data[5:] {
		layer := int(data[0] & 3)
		lo := uint64(data[1])<<8 | uint64(data[2])
		lo %= window
		if data[0]&4 != 0 {
			lo += 1<<32 - window
		}
		span := uint64(data[3])
		if data[0]&8 != 0 {
			span <<= 4
		}
		hi := lo + span
		if hi > 1<<32-1 {
			hi = 1<<32 - 1
		}
		r := ipx.Range{Lo: ipx.Addr(lo), Hi: ipx.Addr(hi)}
		for _, p := range out {
			if p.layer == layer && r.Lo <= p.r.Hi && p.r.Lo <= r.Hi {
				continue draw
			}
		}
		out = append(out, layered{layer: layer, r: r, rec: refRecords[int(data[4])%len(refRecords)]})
	}
	return out
}

// checkBuildMatchesReference builds ents with Build and with
// referenceBuild and fails t unless both return the same error text or
// the same los, his, vals and record table.
func checkBuildMatchesReference(t *testing.T, ents []layered) {
	t.Helper()
	b, ref := NewBuilder("ref"), NewBuilder("ref")
	for _, e := range ents {
		b.Add(e.layer, e.r, e.rec)
		ref.Add(e.layer, e.r, e.rec)
	}
	db, err := b.Build()
	wantLos, wantHis, wantVals, wantRecs, wantErr := referenceBuild(ref)
	if err != nil || wantErr != nil {
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("Build error %v, reference error %v (input %v)", err, wantErr, ents)
		}
		return
	}
	los, his, vals, _, recs := db.Parts()
	if !slices.Equal(los, wantLos) || !slices.Equal(his, wantHis) || !slices.Equal(vals, wantVals) {
		t.Fatalf("ranges %v-%v -> %v, reference %v-%v -> %v (input %v)",
			los, his, vals, wantLos, wantHis, wantVals, ents)
	}
	if !slices.Equal(recs, wantRecs) {
		t.Fatalf("records %v, reference %v (input %v)", recs, wantRecs, ents)
	}
}

// TestBuildMatchesReference pins Build to referenceBuild on hand-made
// edge cases and on randomized four-layer inputs.
func TestBuildMatchesReference(t *testing.T) {
	const top = ^ipx.Addr(0)
	r := func(lo, hi ipx.Addr) ipx.Range { return ipx.Range{Lo: lo, Hi: hi} }
	us, dal, fra, par := refRecords[0], refRecords[1], refRecords[2], refRecords[3]
	for name, ents := range map[string][]layered{
		// Gaps around two covered ranges. Below them, an entry on
		// exactly the gap between them and one spanning both are
		// shadowed completely.
		"gaps and shadow": {
			{3, r(10, 20), us}, {3, r(30, 40), dal},
			{2, r(5, 45), fra},
			{1, r(21, 29), dal},
			{0, r(15, 35), par},
		},
		// Abutting ranges at the top of the space; a /32 at
		// 255.255.255.255 below them is fully shadowed.
		"top of space": {
			{2, r(top-1, top), us},
			{1, r(top-15, top-2), fra},
			{0, r(top, top), par}, {0, r(top-255, top-16), dal},
		},
		// A lower entry at 0.0.0.0 under a higher one reaching past it
		// into the next lower entry.
		"bottom and reach": {
			{1, r(0, 0), par}, {1, r(8, 100), us},
			{0, r(0, 9), fra}, {0, r(10, 20), dal}, {0, r(21, 200), fra},
		},
		"whole space": {
			{1, r(0, top), us},
			{0, r(0, 99), par}, {0, r(top, top), fra},
		},
		"intra-layer overlap": {
			{0, r(0, 100), us}, {0, r(100, 200), dal},
		},
	} {
		t.Run(name, func(t *testing.T) { checkBuildMatchesReference(t, ents) })
	}

	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 300; i++ {
		data := make([]byte, 5*(1+rng.Intn(120)))
		rng.Read(data)
		checkBuildMatchesReference(t, decodeLayered(data))
	}
}

// FuzzBuildMatchesReference decodes the input into layered entries (see
// decodeLayered) and checks Build against referenceBuild.
func FuzzBuildMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{
		3, 0, 10, 10, 0, // layer 3: 10-20
		2, 0, 5, 40, 1, // layer 2: 5-45 around it
		9, 0, 0, 255, 2, // layer 1: a wide entry from 0.0.0.0
		0, 0, 30, 3, 3, // layer 0: shadowed
	})
	f.Add([]byte{
		7, 0x1f, 0xff, 0, 0, // layer 3: 255.255.255.255
		6, 0x1f, 0x00, 255, 4, // layer 2: up to the top
		13, 0x10, 0x0f, 255, 5, // layer 1: wide, up to the top
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		checkBuildMatchesReference(t, decodeLayered(data))
	})
}
