package snapshot

import (
	"math"

	"routergeo/internal/geodb"
	"routergeo/internal/ipx"
	"routergeo/internal/stats"
)

// The longitudinal diff engine. Two snapshots of one database taken at
// different epochs are compared as flat range sets: the address space is
// swept once across both, and every maximal run of addresses with the
// same (before, after) answer pair becomes one classified segment. The
// classification mirrors what "Longitudinal Study of an IP Geolocation
// Database" measures between releases — coverage gained, coverage lost,
// and answers that moved — plus the distance ECDF of the moves, which is
// the drift signal the paper's accuracy tables cannot show.

// Entry is one range of a flattened database: a maximal run of addresses
// sharing a record.
type Entry struct {
	Range ipx.Range
	Rec   geodb.Record
}

// Flatten returns the database's covered address space as sorted,
// disjoint, maximal entries: adjacent ranges carrying equal records are
// merged. Two databases answering every address identically flatten to
// identical slices, whatever range fragmentation their builds produced.
func Flatten(db *geodb.DB) []Entry {
	var out []Entry
	db.Walk(func(r ipx.Range, rec geodb.Record) bool {
		if n := len(out); n > 0 &&
			out[n-1].Rec == rec && uint64(out[n-1].Range.Hi)+1 == uint64(r.Lo) {
			out[n-1].Range.Hi = r.Hi
			return true
		}
		out = append(out, Entry{Range: r, Rec: rec})
		return true
	})
	return out
}

// ChangeKind classifies one diff segment.
type ChangeKind uint8

const (
	// Added addresses are covered only by the newer snapshot.
	Added ChangeKind = iota
	// Removed addresses are covered only by the older snapshot.
	Removed
	// Moved addresses are covered by both with different records.
	Moved
)

// Change is one maximal segment of addresses whose answer changed
// between the two snapshots. From is the zero Record for Added segments,
// To for Removed ones.
type Change struct {
	Range ipx.Range
	Kind  ChangeKind
	From  geodb.Record
	To    geodb.Record
}

// Diff is the classified difference between two databases.
type Diff struct {
	// Changes holds every changed segment in address order.
	Changes []Change

	// Segment tallies per kind, plus the unchanged-covered segments.
	AddedSegments, RemovedSegments, MovedSegments, UnchangedSegments int

	// Address tallies per kind (a /16 move weighs 65536 here, 1 above).
	AddedAddrs, RemovedAddrs, MovedAddrs, UnchangedAddrs uint64

	// Distances is the ECDF of great-circle kilometres between the old
	// and new coordinates of Moved segments where both sides carry a
	// city-resolution record — the location-change-distance distribution.
	// One sample per segment; nil when no such segment exists.
	Distances *stats.ECDF
}

// Compare diffs two databases (old → new) by a single sweep over both
// flattened range sets. The result is deterministic: equal inputs in
// either fragmentation produce equal diffs.
func Compare(old, new *geodb.DB) *Diff {
	ea, eb := Flatten(old), Flatten(new)
	d := &Diff{}
	ia, ib := 0, 0
	pos := uint64(0)
	for ia < len(ea) || ib < len(eb) {
		if ia < len(ea) && uint64(ea[ia].Range.Hi) < pos {
			ia++
			continue
		}
		if ib < len(eb) && uint64(eb[ib].Range.Hi) < pos {
			ib++
			continue
		}
		inA := ia < len(ea) && uint64(ea[ia].Range.Lo) <= pos
		inB := ib < len(eb) && uint64(eb[ib].Range.Lo) <= pos
		if !inA && !inB {
			// A gap in both: jump to the next covered address.
			next := uint64(math.MaxUint64)
			if ia < len(ea) {
				next = uint64(ea[ia].Range.Lo)
			}
			if ib < len(eb) && uint64(eb[ib].Range.Lo) < next {
				next = uint64(eb[ib].Range.Lo)
			}
			pos = next
			continue
		}
		// The segment ends where the nearest active range ends or the
		// nearest upcoming range begins.
		end := uint64(math.MaxUint64)
		clip := func(v uint64) {
			if v < end {
				end = v
			}
		}
		if inA {
			clip(uint64(ea[ia].Range.Hi))
		} else if ia < len(ea) {
			clip(uint64(ea[ia].Range.Lo) - 1)
		}
		if inB {
			clip(uint64(eb[ib].Range.Hi))
		} else if ib < len(eb) {
			clip(uint64(eb[ib].Range.Lo) - 1)
		}
		r := ipx.Range{Lo: ipx.Addr(pos), Hi: ipx.Addr(end)}
		n := end - pos + 1
		switch {
		case inA && inB && ea[ia].Rec == eb[ib].Rec:
			d.UnchangedSegments++
			d.UnchangedAddrs += n
		case inA && inB:
			d.MovedAddrs += n
			d.emit(Change{Range: r, Kind: Moved, From: ea[ia].Rec, To: eb[ib].Rec})
		case inA:
			d.RemovedAddrs += n
			d.emit(Change{Range: r, Kind: Removed, From: ea[ia].Rec})
		default:
			d.AddedAddrs += n
			d.emit(Change{Range: r, Kind: Added, To: eb[ib].Rec})
		}
		pos = end + 1
	}
	for _, c := range d.Changes {
		switch c.Kind {
		case Added:
			d.AddedSegments++
		case Removed:
			d.RemovedSegments++
		case Moved:
			d.MovedSegments++
			if c.From.HasCity() && c.To.HasCity() {
				if d.Distances == nil {
					d.Distances = &stats.ECDF{}
				}
				d.Distances.Add(c.From.Coord.DistanceKm(c.To.Coord))
			}
		}
	}
	return d
}

// emit appends a change, merging it into the previous one when the two
// are address-contiguous with the same kind and records — boundary
// splits of the sweep must not fragment one logical change.
func (d *Diff) emit(c Change) {
	if n := len(d.Changes); n > 0 {
		p := &d.Changes[n-1]
		if p.Kind == c.Kind && p.From == c.From && p.To == c.To &&
			uint64(p.Range.Hi)+1 == uint64(c.Range.Lo) {
			p.Range.Hi = c.Range.Hi
			return
		}
	}
	d.Changes = append(d.Changes, c)
}
