package ipx

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseAddr(t *testing.T) {
	tests := []struct {
		in      string
		want    Addr
		wantErr bool
	}{
		{"0.0.0.0", 0, false},
		{"255.255.255.255", 0xffffffff, false},
		{"10.1.2.3", 0x0a010203, false},
		{"192.0.2.1", 0xc0000201, false},
		{"256.0.0.1", 0, true},
		{"1.2.3", 0, true},
		{"::1", 0, true},
		{"", 0, true},
	}
	for _, tt := range tests {
		got, err := ParseAddr(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseAddr(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("ParseAddr(%q) = %#x, want %#x", tt.in, got, tt.want)
		}
	}
}

func TestAddrStringRoundTripProperty(t *testing.T) {
	f := func(a uint32) bool {
		addr := Addr(a)
		back, err := ParseAddr(addr.String())
		return err == nil && back == addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSlash24(t *testing.T) {
	a := MustParseAddr("198.51.100.200")
	p := a.Slash24()
	if p.String() != "198.51.100.0/24" {
		t.Errorf("Slash24 = %v", p)
	}
	if !p.Contains(a) || !p.Contains(MustParseAddr("198.51.100.0")) {
		t.Error("Slash24 should contain its own addresses")
	}
	if p.Contains(MustParseAddr("198.51.101.0")) {
		t.Error("Slash24 should not contain the next block")
	}
}

func TestParsePrefix(t *testing.T) {
	p := MustParsePrefix("10.0.0.0/8")
	if p.Size() != 1<<24 {
		t.Errorf("Size = %d", p.Size())
	}
	if p.First().String() != "10.0.0.0" || p.Last().String() != "10.255.255.255" {
		t.Errorf("bounds = %v..%v", p.First(), p.Last())
	}
	// Base normalization.
	q := MustParsePrefix("10.1.2.3/8")
	if q != p {
		t.Errorf("unnormalized base: %v", q)
	}
	for _, bad := range []string{"10.0.0.0", "10.0.0.0/33", "10.0.0.0/-1", "x/8"} {
		if _, err := ParsePrefix(bad); err == nil {
			t.Errorf("ParsePrefix(%q) should fail", bad)
		}
	}
}

func TestPrefixZeroBits(t *testing.T) {
	p := Prefix{Base: 0, Bits: 0}
	if !p.Contains(0xffffffff) || !p.Contains(0) {
		t.Error("/0 must contain everything")
	}
	if p.Size() != 1<<32 {
		t.Errorf("/0 size = %d", p.Size())
	}
}

func TestPrefixOverlaps(t *testing.T) {
	a := MustParsePrefix("10.0.0.0/8")
	b := MustParsePrefix("10.5.0.0/16")
	c := MustParsePrefix("11.0.0.0/8")
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("nested prefixes must overlap")
	}
	if a.Overlaps(c) {
		t.Error("disjoint prefixes must not overlap")
	}
}

func TestRangeMapLookup(t *testing.T) {
	var m RangeMap[string]
	m.AddPrefix(MustParsePrefix("10.0.0.0/8"), "ten")
	m.AddPrefix(MustParsePrefix("192.0.2.0/24"), "doc")
	m.Add(Range{Lo: MustParseAddr("172.16.0.0"), Hi: MustParseAddr("172.16.0.9")}, "tiny")
	m.MustBuild()

	tests := []struct {
		ip   string
		want string
		ok   bool
	}{
		{"10.0.0.0", "ten", true},
		{"10.255.255.255", "ten", true},
		{"11.0.0.0", "", false},
		{"9.255.255.255", "", false},
		{"192.0.2.128", "doc", true},
		{"172.16.0.9", "tiny", true},
		{"172.16.0.10", "", false},
		{"0.0.0.0", "", false},
		{"255.255.255.255", "", false},
	}
	for _, tt := range tests {
		got, ok := m.Lookup(MustParseAddr(tt.ip))
		if ok != tt.ok || got != tt.want {
			t.Errorf("Lookup(%s) = %q,%v want %q,%v", tt.ip, got, ok, tt.want, tt.ok)
		}
	}
}

func TestRangeMapOverlapDetection(t *testing.T) {
	var m RangeMap[int]
	m.AddPrefix(MustParsePrefix("10.0.0.0/8"), 1)
	m.AddPrefix(MustParsePrefix("10.1.0.0/16"), 2)
	if err := m.Build(); err == nil {
		t.Error("Build should reject overlapping ranges")
	}
}

func TestRangeMapAdjacentRangesOK(t *testing.T) {
	var m RangeMap[int]
	m.Add(Range{Lo: 0, Hi: 99}, 1)
	m.Add(Range{Lo: 100, Hi: 199}, 2)
	if err := m.Build(); err != nil {
		t.Fatalf("adjacent ranges rejected: %v", err)
	}
	if v, ok := m.Lookup(100); !ok || v != 2 {
		t.Errorf("Lookup(100) = %v,%v", v, ok)
	}
	if v, ok := m.Lookup(99); !ok || v != 1 {
		t.Errorf("Lookup(99) = %v,%v", v, ok)
	}
}

func TestRangeMapEmpty(t *testing.T) {
	var m RangeMap[int]
	m.MustBuild()
	if _, ok := m.Lookup(42); ok {
		t.Error("empty map should find nothing")
	}
}

func TestRangeMapLookupProperty(t *testing.T) {
	// Build a map of random disjoint /24s; every address inside must
	// resolve to its block's value, every address outside must miss.
	rng := rand.New(rand.NewSource(11))
	var m RangeMap[uint32]
	blocks := map[Addr]uint32{}
	for i := 0; i < 500; i++ {
		base := Addr(rng.Uint32()) &^ 0xff
		if _, dup := blocks[base]; dup {
			continue
		}
		blocks[base] = uint32(i)
		m.AddPrefix(Prefix{Base: base, Bits: 24}, uint32(i))
	}
	m.MustBuild()

	f := func(raw uint32) bool {
		a := Addr(raw)
		want, inside := blocks[a&^0xff]
		got, ok := m.Lookup(a)
		if inside {
			return ok && got == want
		}
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestRangeMapWalkOrdered(t *testing.T) {
	var m RangeMap[int]
	m.AddPrefix(MustParsePrefix("200.0.0.0/8"), 3)
	m.AddPrefix(MustParsePrefix("10.0.0.0/8"), 1)
	m.AddPrefix(MustParsePrefix("100.0.0.0/8"), 2)
	m.MustBuild()
	var got []int
	m.Walk(func(_ Range, v int) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("Walk order = %v", got)
	}
	// Early stop.
	n := 0
	m.Walk(func(Range, int) bool { n++; return false })
	if n != 1 {
		t.Errorf("Walk did not stop early: %d calls", n)
	}
}

func TestAllocatorSequential(t *testing.T) {
	a := NewAllocator(MustParsePrefix("10.0.0.0/16"))
	p1, ok := a.Alloc(24)
	if !ok || p1.String() != "10.0.0.0/24" {
		t.Fatalf("first alloc = %v, %v", p1, ok)
	}
	p2, ok := a.Alloc(24)
	if !ok || p2.String() != "10.0.1.0/24" {
		t.Fatalf("second alloc = %v, %v", p2, ok)
	}
	// A /20 must be aligned: next free is 10.0.2.0, aligned up to 10.0.16.0.
	p3, ok := a.Alloc(20)
	if !ok || p3.String() != "10.0.16.0/20" {
		t.Fatalf("aligned alloc = %v, %v", p3, ok)
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	a := NewAllocator(MustParsePrefix("192.0.2.0/24"))
	for i := 0; i < 4; i++ {
		if _, ok := a.Alloc(26); !ok {
			t.Fatalf("alloc %d failed early", i)
		}
	}
	if _, ok := a.Alloc(26); ok {
		t.Error("allocation should fail after exhaustion")
	}
}

func TestAllocatorRejectsShorterThanPool(t *testing.T) {
	a := NewAllocator(MustParsePrefix("10.0.0.0/16"))
	if _, ok := a.Alloc(8); ok {
		t.Error("allocating a /8 from a /16 pool must fail")
	}
}

func TestAllocatorDisjointProperty(t *testing.T) {
	// Any sequence of successful allocations must be pairwise disjoint and
	// inside the pool.
	rng := rand.New(rand.NewSource(12))
	pool := MustParsePrefix("172.16.0.0/12")
	a := NewAllocator(pool)
	var got []Prefix
	for i := 0; i < 300; i++ {
		bits := uint8(20 + rng.Intn(10)) // /20../29
		p, ok := a.Alloc(bits)
		if !ok {
			break
		}
		if !pool.Overlaps(p) || p.First() < pool.First() || p.Last() > pool.Last() {
			t.Fatalf("allocation %v escapes pool %v", p, pool)
		}
		got = append(got, p)
	}
	for i := range got {
		for j := i + 1; j < len(got); j++ {
			if got[i].Overlaps(got[j]) {
				t.Fatalf("allocations overlap: %v and %v", got[i], got[j])
			}
		}
	}
	if len(got) < 100 {
		t.Fatalf("expected many successful allocations, got %d", len(got))
	}
}

func TestAllocatorFullAddressSpaceEnd(t *testing.T) {
	// Allocating at the very top of the IPv4 space must not wrap around.
	a := NewAllocator(MustParsePrefix("255.255.255.0/24"))
	if _, ok := a.Alloc(24); !ok {
		t.Fatal("top /24 should be allocatable")
	}
	if _, ok := a.Alloc(32); ok {
		t.Error("pool should be exhausted after full allocation")
	}
}

func TestRangeSizeAndString(t *testing.T) {
	r := Range{Lo: MustParseAddr("10.0.0.0"), Hi: MustParseAddr("10.0.0.255")}
	if r.Size() != 256 {
		t.Errorf("Size = %d", r.Size())
	}
	if r.String() != "10.0.0.0-10.0.0.255" {
		t.Errorf("String = %s", r.String())
	}
	full := Range{Lo: 0, Hi: 0xffffffff}
	if full.Size() != 1<<32 {
		t.Errorf("full range size = %d", full.Size())
	}
}
