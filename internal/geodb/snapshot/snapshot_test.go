package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"routergeo/internal/geo"
	"routergeo/internal/geodb"
	"routergeo/internal/ipx"
)

func buildSample(t testing.TB) *geodb.DB {
	t.Helper()
	b := geodb.NewBuilder("SampleDB")
	b.AddPrefix(0, ipx.MustParsePrefix("10.0.0.0/16"), geodb.Record{
		Country: "US", City: "Dallas",
		Coord: geo.Coordinate{Lat: 32.7767, Lon: -96.797}, Resolution: geodb.ResolutionCity,
	})
	b.AddPrefix(0, ipx.MustParsePrefix("10.1.0.0/16"), geodb.Record{
		Country: "DE", Resolution: geodb.ResolutionCountry,
	})
	b.AddPrefix(1, ipx.MustParsePrefix("10.0.7.0/24"), geodb.Record{
		Country: "FR", City: "Paris",
		Coord: geo.Coordinate{Lat: 48.8566, Lon: 2.3522}, Resolution: geodb.ResolutionCity,
	})
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// buildRandom grows a database with seeded-random ranges and a healthy
// mix of record shapes, shared between the property test and benchmarks.
func buildRandom(t testing.TB, seed int64, entries int) *geodb.DB {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := geodb.NewBuilder("random")
	lo := ipx.MustParseAddr("20.0.0.0")
	for i := 0; i < entries; i++ {
		lo += ipx.Addr(1 + rng.Intn(5000))
		hi := lo + ipx.Addr(rng.Intn(2000))
		rec := geodb.Record{
			Country:    string([]byte{byte('A' + rng.Intn(26)), byte('A' + rng.Intn(26))}),
			Resolution: geodb.ResolutionCountry,
			BlockBits:  uint8(8 + rng.Intn(25)),
		}
		if rng.Intn(2) == 0 {
			rec.City = []string{"Dallas", "Paris", "Berlin", "Osaka", "Quito"}[rng.Intn(5)]
			rec.Coord = geo.Coordinate{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180}
			rec.Resolution = geodb.ResolutionCity
		}
		b.Add(0, ipx.Range{Lo: lo, Hi: hi}, rec)
		lo = hi
	}
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func snap(t testing.TB, db *geodb.DB, meta Meta) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, db, meta); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rechecksum patches a (possibly corrupted) image's checksum field so
// targeted corruption tests reach the validation they aim at instead of
// tripping the checksum gate first.
func rechecksum(data []byte) {
	sum := checksum(data[:headerSize], data[headerSize:])
	binary.LittleEndian.PutUint64(data[8:], sum)
}

// TestRoundTripProperty is the format's core promise: write → decode
// must be lookup-for-lookup identical to the in-memory database, checked
// against an independent binary-search oracle over the walked entries on
// every range boundary (±1) plus seeded-random probes.
func TestRoundTripProperty(t *testing.T) {
	db := buildRandom(t, 7, 4000)
	data := snap(t, db, Meta{BuildEpoch: 1700000000, SourceFormat: "test"})
	back, info, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "random" || info.Ranges != db.Len() || info.SourceFormat != "test" {
		t.Fatalf("info = %+v", info)
	}
	if back.Meta().Generation != GenerationID(info.Checksum) {
		t.Fatalf("generation %q does not match checksum %016x", back.Meta().Generation, info.Checksum)
	}

	// Independent oracle: a plain binary search over the db's entries.
	var ranges []ipx.Range
	var recs []geodb.Record
	db.Walk(func(r ipx.Range, rec geodb.Record) bool {
		ranges, recs = append(ranges, r), append(recs, rec)
		return true
	})
	oracle := func(a ipx.Addr) (geodb.Record, bool) {
		i := sort.Search(len(ranges), func(i int) bool { return ranges[i].Lo > a })
		if i == 0 || !ranges[i-1].Contains(a) {
			return geodb.Record{}, false
		}
		return recs[i-1], true
	}

	var queries []ipx.Addr
	db.Walk(func(r ipx.Range, _ geodb.Record) bool {
		queries = append(queries, r.Lo, r.Hi)
		if r.Lo > 0 {
			queries = append(queries, r.Lo-1)
		}
		if r.Hi < ^ipx.Addr(0) {
			queries = append(queries, r.Hi+1)
		}
		return true
	})
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20000; i++ {
		queries = append(queries, ipx.Addr(rng.Uint32()))
	}

	for _, a := range queries {
		want, wantOK := oracle(a)
		if got, ok := back.Lookup(a); ok != wantOK || got != want {
			t.Fatalf("Lookup(%v) = %+v,%v; oracle %+v,%v", a, got, ok, want, wantOK)
		}
	}
}

func TestGenerationIdentity(t *testing.T) {
	db := buildSample(t)
	a := snap(t, db, Meta{BuildEpoch: 100, SourceFormat: "study"})
	b := snap(t, db, Meta{BuildEpoch: 100, SourceFormat: "study"})
	if !bytes.Equal(a, b) {
		t.Fatal("identical inputs produced different snapshot bytes")
	}
	// Same content, later build: content-identical but a distinct
	// generation, so a republished snapshot is visibly a new generation.
	c := snap(t, db, Meta{BuildEpoch: 101, SourceFormat: "study"})
	_, ia, err := Decode(a)
	if err != nil {
		t.Fatal(err)
	}
	_, ic, err := Decode(c)
	if err != nil {
		t.Fatal(err)
	}
	if ia.Generation == ic.Generation {
		t.Fatal("different build epochs share a generation id")
	}
	if len(ia.Generation) != 16 {
		t.Fatalf("generation %q not 16 hex digits", ia.Generation)
	}
}

func TestWriteFileAndOpen(t *testing.T) {
	dir := t.TempDir()
	db := buildSample(t)
	path := filepath.Join(dir, "sample"+Ext)
	if err := WriteFile(path, db, Meta{BuildEpoch: 42, SourceFormat: "study"}); err != nil {
		t.Fatal(err)
	}
	// Atomic write leaves no temp droppings.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
	h, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if h.Info().BuildEpoch != 42 || h.Info().Name != "SampleDB" {
		t.Fatalf("info = %+v", h.Info())
	}
	a := ipx.MustParseAddr("10.0.7.9")
	want, _ := db.Lookup(a)
	got, ok := h.DB().Lookup(a)
	if !ok || got != want {
		t.Fatalf("Lookup via Open = %+v,%v, want %+v", got, ok, want)
	}
	if got := h.DB().Meta().SourceFormat; got != "snapshot" {
		t.Fatalf("loaded DB SourceFormat = %q", got)
	}
	info, err := Inspect(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Checksum != h.Info().Checksum || info.Size != h.Info().Size {
		t.Fatalf("Inspect = %+v, Open = %+v", info, h.Info())
	}
}

func TestCorruptedSnapshots(t *testing.T) {
	db := buildSample(t)
	good := snap(t, db, Meta{BuildEpoch: 9, SourceFormat: "study"})

	tests := []struct {
		name    string
		mangle  func([]byte) []byte
		wantErr error
	}{
		{"truncated header", func(d []byte) []byte { return d[:headerSize-1] }, ErrTruncated},
		{"empty file", func(d []byte) []byte { return nil }, ErrTruncated},
		{"bad magic", func(d []byte) []byte { d[0] = 'X'; return d }, ErrBadMagic},
		{"wrong version", func(d []byte) []byte {
			binary.LittleEndian.PutUint16(d[4:], 99)
			return d
		}, ErrBadVersion},
		{"reserved flags", func(d []byte) []byte {
			binary.LittleEndian.PutUint16(d[6:], 1)
			return d
		}, ErrBadVersion},
		{"bad checksum", func(d []byte) []byte { d[len(d)-1] ^= 0xff; return d }, ErrBadChecksum},
		{"truncated payload", func(d []byte) []byte {
			d = d[:len(d)-8]
			rechecksum(d)
			return d
		}, ErrTruncated},
		{"misaligned section", func(d []byte) []byte {
			off := binary.LittleEndian.Uint64(d[72:]) // losOff
			binary.LittleEndian.PutUint64(d[72:], off+4)
			rechecksum(d)
			return d
		}, ErrMisaligned},
		{"section out of bounds", func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[96:], 1<<40) // jumpOff
			rechecksum(d)
			return d
		}, ErrTruncated},
		{"absurd range count", func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[24:], maxRanges+1)
			rechecksum(d)
			return d
		}, ErrCorrupt},
		{"broken jump table", func(d []byte) []byte {
			off := binary.LittleEndian.Uint64(d[96:]) // jumpOff
			d[off] ^= 0xff
			rechecksum(d)
			return d
		}, ErrCorrupt},
		{"record index out of range", func(d []byte) []byte {
			off := binary.LittleEndian.Uint64(d[88:]) // valsOff
			binary.LittleEndian.PutUint32(d[off:], 1<<30)
			rechecksum(d)
			return d
		}, ErrCorrupt},
		{"bad record resolution", func(d []byte) []byte {
			off := binary.LittleEndian.Uint64(d[104:]) // recsOff
			d[off+2] = 200
			rechecksum(d)
			return d
		}, ErrCorrupt},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mangle(append([]byte(nil), good...))
			_, _, err := Decode(data)
			if err == nil {
				t.Fatal("corrupted snapshot decoded without error")
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
		})
	}
	// The pristine image still decodes — corruption tests worked on copies.
	if _, _, err := Decode(good); err != nil {
		t.Fatalf("pristine image stopped decoding: %v", err)
	}
}

func TestOpenRejectsCorruptFile(t *testing.T) {
	dir := t.TempDir()
	db := buildSample(t)
	data := snap(t, db, Meta{})
	data[len(data)-1] ^= 0xff
	path := filepath.Join(dir, "bad"+Ext)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("Open = %v, want checksum error", err)
	}
}
