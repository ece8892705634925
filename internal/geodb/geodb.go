// Package geodb defines the geolocation-database model the evaluation
// consumes: a Provider answers IP lookups with a location Record at
// country or city resolution, exactly the query interface MaxMind,
// IP2Location and NetAcuity expose. The concrete DB type is an immutable
// sorted range database (the layout those products actually ship) built
// through a layered Builder; its on-disk forms live in the snapshot
// (RGSP binary) and dbcsv subpackages.
package geodb

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"

	"routergeo/internal/geo"
	"routergeo/internal/ipx"
)

// Resolution is the finest granularity a record answers at.
type Resolution uint8

const (
	// ResolutionNone marks an absent or empty record.
	ResolutionNone Resolution = iota
	// ResolutionCountry records carry only a country code.
	ResolutionCountry
	// ResolutionCity records carry country, city name and coordinates.
	ResolutionCity
)

// String names the resolution.
func (r Resolution) String() string {
	switch r {
	case ResolutionCountry:
		return "country"
	case ResolutionCity:
		return "city"
	default:
		return "none"
	}
}

// Record is one geolocation answer.
type Record struct {
	// Country is the ISO2 country code ("" when unknown).
	Country string
	// City is the city name at city resolution ("" otherwise).
	City string
	// Coord is set at city resolution; (0,0) means no coordinates.
	Coord geo.Coordinate
	// Resolution is the record's granularity.
	Resolution Resolution
	// BlockBits is the prefix length of the database entry that produced
	// this answer (e.g. 24 for a /24 record, 19 for a whole-delegation
	// record, 32 for a per-address entry). The paper's §5.2.3 uses exactly
	// this signal: "block-level — /24 block or larger — locations".
	BlockBits uint8
}

// HasCountry reports whether the record answers at country level or finer.
func (r Record) HasCountry() bool { return r.Resolution >= ResolutionCountry && r.Country != "" }

// HasCity reports whether the record answers at city level with
// coordinates.
func (r Record) HasCity() bool {
	return r.Resolution == ResolutionCity && r.City != "" && !r.Coord.IsZero()
}

// BlockLevel reports whether the record came from a /24-or-coarser entry.
func (r Record) BlockLevel() bool { return r.BlockBits <= 24 }

// Provider is the query interface the evaluation runs against.
type Provider interface {
	// Name identifies the database (e.g. "NetAcuity").
	Name() string
	// Lookup resolves one address; ok is false when the database has no
	// record covering it.
	Lookup(a ipx.Addr) (Record, bool)
}

// BatchIndexer is implemented by providers whose record table is
// resident in memory and whose lookups can be resolved in bulk. The
// contract: out[i] after LookupIndexBatch is an index into Records()
// answering addrs[i], or -1 when the provider has no covering record —
// exactly what per-address Lookup would report, but resolved through a
// sort-and-walk kernel that touches the index monotonically. Answers
// are indices rather than Record copies so scoring loops read records
// in place without per-address copying.
type BatchIndexer interface {
	// Records returns the shared record table; callers must treat it as
	// read-only.
	Records() []Record
	// RecordVecs returns one unit-sphere vector per Records() entry for
	// the distance kernel (geo.ArcKm); read-only like the table.
	RecordVecs() []geo.Vec3
	// LookupIndexBatch fills out[:len(addrs)] with record-table indices
	// (-1 for a miss). s holds the reusable sort scratch; one scratch per
	// goroutine, never shared concurrently.
	LookupIndexBatch(addrs []ipx.Addr, out []int32, s *ipx.BatchScratch)
}

// DB is an immutable sorted-range geolocation database. Queries are
// served from a flat structure-of-arrays index with a /16 jump table
// whose values are indices into a deduplicated record table — the same
// two-level layout vendor snapshot files (MaxMind's mmdb, IP2Location's
// BIN) ship, and the exact layout the snapshot subpackage memory-maps,
// so a loaded snapshot and a freshly built database serve through
// identical code. The layered range map survives only inside Build.
type DB struct {
	name string
	idx  *ipx.FlatIndex[uint32]
	recs []Record
	meta Meta

	// vecs caches one unit-sphere vector per record-table entry, built
	// lazily on first RecordVecs call. The table is immutable once
	// published, like everything else here.
	vecsOnce sync.Once
	vecs     []geo.Vec3
}

// Meta is the provenance a database carries: where it came from and the
// snapshot identity (generation, checksum, build epoch) when it was
// loaded from one. The zero value means "built in memory, no identity
// attached"; Fingerprint supplies a content-derived stand-in then.
type Meta struct {
	// Generation identifies the exact database bytes (for snapshots, the
	// hex form of Checksum).
	Generation string
	// Checksum is the snapshot file checksum (0 when not snapshot-loaded).
	Checksum uint64
	// BuildEpoch is the unix-seconds build time recorded by the writer.
	BuildEpoch int64
	// SourceFormat names the artifact the database was loaded from:
	// "snapshot", "csv", or "" for an in-memory build.
	SourceFormat string
}

// Name implements Provider.
func (d *DB) Name() string { return d.name }

// Meta returns the database's provenance metadata.
func (d *DB) Meta() Meta { return d.meta }

// SetMeta attaches provenance metadata (loaders call this).
func (d *DB) SetMeta(m Meta) { d.meta = m }

// Lookup implements Provider.
func (d *DB) Lookup(a ipx.Addr) (Record, bool) {
	i, ok := d.idx.Lookup(a)
	if !ok {
		return Record{}, false
	}
	return d.recs[i], true
}

// compile-time interface checks
var (
	_ Provider     = (*DB)(nil)
	_ BatchIndexer = (*DB)(nil)
)

// Records implements BatchIndexer: the deduplicated record table range
// values index into. Read-only.
func (d *DB) Records() []Record { return d.recs }

// RecordVecs implements BatchIndexer: one unit-sphere vector per
// Records() entry, computed lazily on first use and shared (read-only)
// thereafter. The accuracy and consistency sweeps read it so per-pair
// great-circle distances cost a dot product (geo.ArcKm) instead of
// per-pair trigonometry. Only city records carry coordinates; every
// other entry stays the zero vector and is never consulted.
func (d *DB) RecordVecs() []geo.Vec3 {
	d.vecsOnce.Do(func() {
		vs := make([]geo.Vec3, len(d.recs))
		for i := range d.recs {
			if d.recs[i].HasCity() {
				vs[i] = d.recs[i].Coord.Vec()
			}
		}
		d.vecs = vs
	})
	return d.vecs
}

// LookupIndexBatch implements BatchIndexer over the flat index: resolve
// every address to its covering interval in one monotone walk, then map
// intervals to record-table indices.
//
//geolint:hotpath
func (d *DB) LookupIndexBatch(addrs []ipx.Addr, out []int32, s *ipx.BatchScratch) {
	d.idx.FindBatch(addrs, out, s)
	_, _, vals, _ := d.idx.SoA()
	for i, iv := range out[:len(addrs)] {
		if iv >= 0 {
			out[i] = int32(vals[iv])
		}
	}
}

// Len returns the number of range entries.
func (d *DB) Len() int { return d.idx.Len() }

// Walk visits every entry in address order.
func (d *DB) Walk(fn func(ipx.Range, Record) bool) {
	los, his, vals, _ := d.idx.SoA()
	for i := range los {
		if !fn(ipx.Range{Lo: los[i], Hi: his[i]}, d.recs[vals[i]]) {
			return
		}
	}
}

// Parts exposes the serving representation — the SoA interval arrays,
// the per-range record indices, the /16 jump table and the deduplicated
// record table — for serialization. All slices are live backing arrays
// and must be treated as read-only.
func (d *DB) Parts() (los, his []ipx.Addr, vals []uint32, jump []int32, recs []Record) {
	los, his, vals, jump = d.idx.SoA()
	return los, his, vals, jump, d.recs
}

// FromIndex wraps a pre-built flat index over a record table into a DB —
// the snapshot loader's entry point. Every range value must reference a
// record inside the table; the scan is O(ranges) integer compares, no
// per-range decoding.
func FromIndex(name string, idx *ipx.FlatIndex[uint32], recs []Record, meta Meta) (*DB, error) {
	_, _, vals, _ := idx.SoA()
	for i, v := range vals {
		if int(v) >= len(recs) {
			return nil, fmt.Errorf("geodb: %s: range %d references record %d of %d",
				name, i, v, len(recs))
		}
	}
	return &DB{name: name, idx: idx, recs: recs, meta: meta}, nil
}

// Fingerprint hashes the serving representation (FNV-1a over the name,
// the SoA arrays and the record table). It gives in-memory databases a
// stable, content-derived identity for generation/ETag purposes when no
// snapshot metadata is attached; identical builds produce identical
// fingerprints.
func (d *DB) Fingerprint() uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(d.name))
	var b [8]byte
	w32 := func(v uint32) {
		binary.LittleEndian.PutUint32(b[:4], v)
		_, _ = h.Write(b[:4])
	}
	los, his, vals, _ := d.idx.SoA()
	for i := range los {
		w32(uint32(los[i]))
		w32(uint32(his[i]))
		w32(vals[i])
	}
	for _, r := range d.recs {
		_, _ = h.Write([]byte(r.Country))
		_, _ = h.Write([]byte{0, byte(r.Resolution), r.BlockBits})
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(r.Coord.Lat))
		_, _ = h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(r.Coord.Lon))
		_, _ = h.Write(b[:])
		_, _ = h.Write([]byte(r.City))
		_, _ = h.Write([]byte{0})
	}
	return h.Sum64()
}

// Builder assembles a DB from layered records: vendors lay down coarse
// registration-derived records and override parts of them with finer
// evidence (measurement corrections, per-address hostname hints). Higher
// layers win; Build flattens the layers into disjoint ranges.
type Builder struct {
	name   string
	layers map[int][]entry
}

type entry struct {
	r   ipx.Range
	rec Record
}

// NewBuilder starts a database named name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, layers: make(map[int][]entry)}
}

// Add places a record on a layer. Records within one layer must be
// disjoint (Build reports an error otherwise); records on higher layers
// shadow lower ones where they overlap.
func (b *Builder) Add(layer int, r ipx.Range, rec Record) {
	b.layers[layer] = append(b.layers[layer], entry{r: r, rec: rec})
}

// AddPrefix is Add for a CIDR block, filling Record.BlockBits from the
// prefix length if unset.
func (b *Builder) AddPrefix(layer int, p ipx.Prefix, rec Record) {
	if rec.BlockBits == 0 {
		rec.BlockBits = p.Bits
	}
	b.Add(layer, ipx.RangeOf(p), rec)
}

// Build flattens the layers into a queryable database.
func (b *Builder) Build() (*DB, error) {
	var order []int
	for l := range b.layers {
		order = append(order, l)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(order)))

	db := &DB{name: b.name}
	// Records dedup into a table as they are laid down; the interning
	// order is deterministic (layer order, sorted entries, fragment
	// order), so identical builds yield identical tables.
	recIdx := map[Record]uint32{}
	intern := func(rec Record) uint32 {
		if i, ok := recIdx[rec]; ok {
			return i
		}
		i := uint32(len(db.recs))
		recIdx[rec] = i
		db.recs = append(db.recs, rec)
		return i
	}
	var m ipx.RangeMap[uint32]
	var covered coverage
	for _, l := range order {
		entries := b.layers[l]
		sort.Slice(entries, func(i, j int) bool { return entries[i].r.Lo < entries[j].r.Lo })
		for i := 1; i < len(entries); i++ {
			if entries[i].r.Lo <= entries[i-1].r.Hi {
				return nil, fmt.Errorf("geodb: %s layer %d: overlapping records %v and %v",
					b.name, l, entries[i-1].r, entries[i].r)
			}
		}
		for _, e := range entries {
			frags := covered.subtract(e.r)
			if len(frags) > 0 {
				ri := intern(e.rec)
				for _, frag := range frags {
					m.Add(frag, ri)
				}
			}
			covered.insert(e.r)
		}
	}
	if err := m.Build(); err != nil {
		return nil, fmt.Errorf("geodb: %s: %w", b.name, err)
	}
	db.idx = ipx.NewFlatIndex(&m)
	return db, nil
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
