package snapshot

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"routergeo/internal/geodb"
	"routergeo/internal/ipx"
)

func benchImage(b *testing.B, entries int) ([]byte, *geodb.DB) {
	b.Helper()
	db := buildRandom(b, 21, entries)
	return snap(b, db, Meta{BuildEpoch: 1, SourceFormat: "bench"}), db
}

// BenchmarkWrite measures compiling a 50k-range database to snapshot
// bytes.
func BenchmarkWrite(b *testing.B) {
	db := buildRandom(b, 21, 50000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := Write(&buf, db, Meta{BuildEpoch: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecode measures turning a heap-resident snapshot image into a
// servable DB — the cost a non-mmap load pays after reading the file.
func BenchmarkDecode(b *testing.B) {
	data, _ := benchImage(b, 50000)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpen measures the full file path: open, map (linux) or read,
// validate, decode. This is the number hot reload pays per generation.
func BenchmarkOpen(b *testing.B) {
	data, _ := benchImage(b, 50000)
	path := filepath.Join(b.TempDir(), "bench"+Ext)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := Open(path)
		if err != nil {
			b.Fatal(err)
		}
		h.Close()
	}
}

// BenchmarkLookupHeap probes a snapshot decoded from a heap buffer;
// BenchmarkLookupMapped probes one served straight off the file mapping
// (the heap fallback on non-linux, so the name stays comparable across
// platforms). Together they are the mmap-vs-heap serving comparison.
func BenchmarkLookupHeap(b *testing.B) {
	data, _ := benchImage(b, 50000)
	db, _, err := Decode(data)
	if err != nil {
		b.Fatal(err)
	}
	benchLookups(b, db)
}

func BenchmarkLookupMapped(b *testing.B) {
	data, _ := benchImage(b, 50000)
	path := filepath.Join(b.TempDir(), "bench"+Ext)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		b.Fatal(err)
	}
	h, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	benchLookups(b, h.DB())
}

func benchLookups(b *testing.B, db *geodb.DB) {
	b.Helper()
	rng := rand.New(rand.NewSource(5))
	queries := make([]ipx.Addr, 8192)
	lo, hi := ipx.MustParseAddr("20.0.0.0"), ipx.MustParseAddr("40.0.0.0")
	for i := range queries {
		queries[i] = lo + ipx.Addr(rng.Int63n(int64(hi-lo)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Lookup(queries[i%len(queries)])
	}
}
