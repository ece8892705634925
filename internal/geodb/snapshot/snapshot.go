// Package snapshot compiles a built geodb.DB into a versioned,
// checksummed, alignment-padded binary file — the project's answer to
// MaxMind's .mmdb: the artifact a serving fleet ships to replicas and an
// archive accumulates over time. The file holds the serving
// representation itself (the FlatIndex SoA arrays, the /16 jump table,
// the per-range record indices and the deduplicated record table), so
// loading is one read — a single mmap on linux, an io.ReadAll fallback
// elsewhere — followed by O(records) table decoding and O(ranges)
// integer validation. No per-range decoding happens; the mapped sections
// ARE the slices lookups probe, and lookups are bit-identical to the
// in-memory index the database was compiled from.
//
// Layout (all integers little-endian; every section 64-byte aligned):
//
//	header (120 bytes):
//	  magic      "RGSP"                   4 bytes
//	  version    uint16                   currently 1
//	  flags      uint16                   reserved, must be 0
//	  checksum   uint64                   FNV-1a over the whole file with
//	                                      this field zeroed
//	  buildEpoch int64                    unix seconds, writer-supplied
//	  rangeCount uint64
//	  recCount   uint64
//	  nameOff, nameLen                    uint64 each: database name
//	  srcOff, srcLen                      uint64 each: source format
//	  losOff, hisOff, valsOff, jumpOff    uint64 each
//	  recsOff, recsLen                    uint64 each
//	sections (in file order, zero-padded to 64-byte boundaries):
//	  name       raw bytes
//	  source     raw bytes
//	  los        rangeCount × uint32      interval lower bounds
//	  his        rangeCount × uint32      interval upper bounds
//	  vals       rangeCount × uint32      record-table indices
//	  jump       65537 × int32            /16 jump table
//	  records    recCount variable-length entries:
//	               country 2 bytes (ISO2, zero-padded), res uint8,
//	               blockBits uint8, lat float64, lon float64,
//	               cityLen uint16, city bytes
//
// The checksum doubles as the snapshot's generation id (its 16-digit hex
// form); two snapshots with identical content and build epoch share a
// generation, and any change to either produces a new one.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"

	"routergeo/internal/geodb"
)

const (
	// Magic identifies a snapshot file's first four bytes.
	Magic = "RGSP"
	// Version is the current format version.
	Version = 1
	// Ext is the conventional snapshot file extension.
	Ext = ".rgsnap"

	headerSize = 120
	align      = 64
	jumpLen    = 1<<16 + 1

	// maxRecords bounds the declared record count so a forged header
	// cannot demand a runaway allocation (each record costs ≥ 22 bytes).
	maxRecords = 1 << 26
	// maxRanges likewise bounds the declared range count.
	maxRanges = 1 << 28
)

// Meta is the writer-supplied provenance stored in a snapshot header.
type Meta struct {
	// BuildEpoch is the build time in unix seconds. The writer supplies
	// it (rather than the package reading a clock) so snapshot bytes are
	// a pure function of their inputs.
	BuildEpoch int64
	// SourceFormat names what the snapshot was compiled from, e.g.
	// "study", "groundtruth", "csv".
	SourceFormat string
}

// Info describes a loaded or inspected snapshot.
type Info struct {
	Name         string
	Generation   string // hex form of Checksum
	Checksum     uint64
	BuildEpoch   int64
	SourceFormat string
	Ranges       int
	Records      int
	Size         int64
	Mapped       bool // true when the sections are memory-mapped
}

// GenerationID formats a checksum as the generation id snapshots,
// /v2/databases and ETags all use.
func GenerationID(checksum uint64) string { return fmt.Sprintf("%016x", checksum) }

// Write serializes db into the snapshot format. The payload is
// assembled in memory (sections are padded and offsets are known before
// the header is emitted), checksummed, and written in one pass.
func Write(w io.Writer, db *geodb.DB, meta Meta) error {
	los, his, vals, jump, recs := db.Parts()
	if len(recs) > maxRecords {
		return fmt.Errorf("snapshot: %d records exceed the format bound", len(recs))
	}
	if len(los) > maxRanges {
		return fmt.Errorf("snapshot: %d ranges exceed the format bound", len(los))
	}

	var payload bytes.Buffer
	// section appends raw bytes padded to the alignment boundary and
	// returns the absolute file offset the section starts at.
	section := func(b []byte) uint64 {
		pad := (align - (headerSize+payload.Len())%align) % align
		payload.Write(make([]byte, pad))
		off := uint64(headerSize + payload.Len())
		payload.Write(b)
		return off
	}
	u32s := func(n int, at func(int) uint32) []byte {
		b := make([]byte, 4*n)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(b[4*i:], at(i))
		}
		return b
	}

	name := []byte(db.Name())
	src := []byte(meta.SourceFormat)
	nameOff := section(name)
	srcOff := section(src)
	losOff := section(u32s(len(los), func(i int) uint32 { return uint32(los[i]) }))
	hisOff := section(u32s(len(his), func(i int) uint32 { return uint32(his[i]) }))
	valsOff := section(u32s(len(vals), func(i int) uint32 { return vals[i] }))
	jumpOff := section(u32s(len(jump), func(i int) uint32 { return uint32(jump[i]) }))

	var rb bytes.Buffer
	for _, r := range recs {
		if len(r.Country) > 2 {
			return fmt.Errorf("snapshot: country code %q longer than ISO2", r.Country)
		}
		var cc [2]byte
		copy(cc[:], r.Country)
		rb.Write(cc[:])
		rb.WriteByte(byte(r.Resolution))
		rb.WriteByte(r.BlockBits)
		var f [8]byte
		binary.LittleEndian.PutUint64(f[:], math.Float64bits(r.Coord.Lat))
		rb.Write(f[:])
		binary.LittleEndian.PutUint64(f[:], math.Float64bits(r.Coord.Lon))
		rb.Write(f[:])
		if len(r.City) > 1<<16-1 {
			return fmt.Errorf("snapshot: city name too long (%d bytes)", len(r.City))
		}
		var cl [2]byte
		binary.LittleEndian.PutUint16(cl[:], uint16(len(r.City)))
		rb.Write(cl[:])
		rb.WriteString(r.City)
	}
	recsOff := section(rb.Bytes())

	hdr := make([]byte, headerSize)
	copy(hdr, Magic)
	binary.LittleEndian.PutUint16(hdr[4:], Version)
	binary.LittleEndian.PutUint16(hdr[6:], 0) // flags
	// hdr[8:16] is the checksum, patched below.
	binary.LittleEndian.PutUint64(hdr[16:], uint64(meta.BuildEpoch))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(len(los)))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(len(recs)))
	binary.LittleEndian.PutUint64(hdr[40:], nameOff)
	binary.LittleEndian.PutUint64(hdr[48:], uint64(len(name)))
	binary.LittleEndian.PutUint64(hdr[56:], srcOff)
	binary.LittleEndian.PutUint64(hdr[64:], uint64(len(src)))
	binary.LittleEndian.PutUint64(hdr[72:], losOff)
	binary.LittleEndian.PutUint64(hdr[80:], hisOff)
	binary.LittleEndian.PutUint64(hdr[88:], valsOff)
	binary.LittleEndian.PutUint64(hdr[96:], jumpOff)
	binary.LittleEndian.PutUint64(hdr[104:], recsOff)
	binary.LittleEndian.PutUint64(hdr[112:], uint64(rb.Len()))

	sum := checksum(hdr, payload.Bytes())
	binary.LittleEndian.PutUint64(hdr[8:], sum)

	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload.Bytes())
	return err
}

// checksum hashes header (with its checksum field treated as zero)
// followed by the payload.
func checksum(hdr, payload []byte) uint64 {
	var zero [8]byte
	h := fnv.New64a()
	_, _ = h.Write(hdr[:8])
	_, _ = h.Write(zero[:])
	_, _ = h.Write(hdr[16:])
	_, _ = h.Write(payload)
	return h.Sum64()
}

// WriteFile writes db to path atomically: the snapshot lands under a
// temporary name in the same directory and is renamed into place, so a
// concurrently polling reloader never observes a half-written file.
func WriteFile(path string, db *geodb.DB, meta Meta) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := Write(f, db, meta); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
