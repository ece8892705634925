package ipx

import (
	"encoding/binary"
	"testing"
)

// FuzzParseAddr checks the address parser never panics and that accepted
// inputs round-trip through String.
func FuzzParseAddr(f *testing.F) {
	f.Add("0.0.0.0")
	f.Add("255.255.255.255")
	f.Add("10.0.0.1")
	f.Add("::1")
	f.Add("")
	f.Add("1.2.3.4.5")

	f.Fuzz(func(t *testing.T, s string) {
		a, err := ParseAddr(s)
		if err != nil {
			return
		}
		back, err := ParseAddr(a.String())
		if err != nil || back != a {
			t.Fatalf("round trip broke: %q -> %v -> %q", s, a, a.String())
		}
	})
}

// FuzzParsePrefix checks the CIDR parser: accepted prefixes must be
// normalized (base aligned) and self-consistent.
func FuzzParsePrefix(f *testing.F) {
	f.Add("10.0.0.0/8")
	f.Add("192.0.2.1/31")
	f.Add("0.0.0.0/0")
	f.Add("1.2.3.4/33")
	f.Add("x/8")

	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePrefix(s)
		if err != nil {
			return
		}
		if p.Bits > 32 {
			t.Fatalf("accepted /%d", p.Bits)
		}
		if !p.Contains(p.First()) || !p.Contains(p.Last()) {
			t.Fatalf("prefix %v does not contain its own bounds", p)
		}
		if p.First() != p.Base {
			t.Fatalf("unnormalized base in %v", p)
		}
		back, err := ParsePrefix(p.String())
		if err != nil || back != p {
			t.Fatalf("round trip broke: %q -> %v", s, p)
		}
	})
}

// FuzzFlatIndexEquivalence decodes the fuzz input as a range set plus
// probe addresses and checks that FlatIndex.Lookup agrees with
// RangeMap.Lookup on every probe. Overlapping draws are dropped
// rather than rejected so almost any input exercises the index.
func FuzzFlatIndexEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 255, 255, 255, 255})
	f.Add([]byte{
		10, 0, 0, 0, 10, 0, 255, 255, // 10.0/16
		10, 1, 0, 0, 10, 1, 0, 0, // single address
		10, 0, 0, 5, 10, 2, 0, 0, // probes
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		m := &RangeMap[uint32]{}
		var hi Addr // highest endpoint placed so far, keeps draws disjoint
		placed := false
		i := 0
		for ; i+8 <= len(data) && m.Len() < 1<<12; i += 8 {
			lo := Addr(binary.BigEndian.Uint32(data[i:]))
			hiR := Addr(binary.BigEndian.Uint32(data[i+4:]))
			if lo > hiR {
				lo, hiR = hiR, lo
			}
			if placed && lo <= hi {
				continue
			}
			m.Add(Range{Lo: lo, Hi: hiR}, uint32(i))
			hi, placed = hiR, true
		}
		if err := m.Build(); err != nil {
			t.Fatalf("disjoint construction still overlapped: %v", err)
		}
		x := NewFlatIndex(m)
		check := func(a Addr) {
			wantV, wantOK := m.Lookup(a)
			if gotV, gotOK := x.Lookup(a); gotV != wantV || gotOK != wantOK {
				t.Fatalf("FlatIndex.Lookup(%v) = %v,%v want %v,%v", a, gotV, gotOK, wantV, wantOK)
			}
		}
		// Remaining bytes are probes; boundaries of every range too.
		for ; i+4 <= len(data); i += 4 {
			check(Addr(binary.BigEndian.Uint32(data[i:])))
		}
		m.Walk(func(r Range, _ uint32) bool {
			check(r.Lo)
			check(r.Hi)
			check(r.Lo - 1)
			check(r.Hi + 1)
			return true
		})
	})
}

// FuzzFindBatchEquivalence decodes the input as a range set plus a
// probe list (any order, duplicates and misses included) and checks the
// sort-then-walk FindBatch kernel answers exactly like per-address
// Lookup at every position.
func FuzzFindBatchEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{10, 0, 0, 0, 10, 0, 255, 255, 10, 0, 0, 5, 9, 255, 255, 255})
	f.Add([]byte{
		10, 0, 0, 0, 10, 0, 255, 255,
		10, 2, 0, 0, 10, 7, 0, 0, // spans several /16 buckets
		10, 3, 0, 9, 10, 0, 0, 1, 10, 3, 0, 9, // probes, descending, repeated
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		m := &RangeMap[uint32]{}
		var hi Addr
		placed := false
		i := 0
		for ; i+8 <= len(data) && m.Len() < 1<<10; i += 8 {
			lo := Addr(binary.BigEndian.Uint32(data[i:]))
			hiR := Addr(binary.BigEndian.Uint32(data[i+4:]))
			if lo > hiR {
				lo, hiR = hiR, lo
			}
			if placed && lo <= hi {
				continue
			}
			m.Add(Range{Lo: lo, Hi: hiR}, uint32(i))
			hi, placed = hiR, true
		}
		if err := m.Build(); err != nil {
			t.Fatalf("disjoint construction still overlapped: %v", err)
		}
		x := NewFlatIndex(m)
		var addrs []Addr
		for ; i+4 <= len(data); i += 4 {
			addrs = append(addrs, Addr(binary.BigEndian.Uint32(data[i:])))
		}
		m.Walk(func(r Range, _ uint32) bool {
			addrs = append(addrs, r.Lo, r.Hi, r.Lo-1, r.Hi+1)
			return true
		})
		checkBatchMatchesLookup(t, x, addrs, &BatchScratch{})
	})
}
