// Package ipx provides the IPv4 machinery the reproduction is built on:
// a compact address type, CIDR prefixes, a flat index of sorted address
// intervals (the same access pattern commercial geolocation databases
// serve), and a sequential prefix allocator used to model RIR address
// delegation.
//
// Everything is IPv4-only, as is the paper (its Ark dataset is IPv4 /24
// probing). Addresses are uint32s in host order; conversion to and from
// dotted-quad strings and net/netip is provided at the edges.
package ipx

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
)

// Addr is an IPv4 address in host byte order.
type Addr uint32

// ParseAddr parses a dotted-quad IPv4 address.
func ParseAddr(s string) (Addr, error) {
	a, err := netip.ParseAddr(s)
	if err != nil {
		return 0, fmt.Errorf("ipx: parse %q: %w", s, err)
	}
	if !a.Is4() {
		return 0, fmt.Errorf("ipx: %q is not IPv4", s)
	}
	b := a.As4()
	return Addr(uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])), nil
}

// MustParseAddr is ParseAddr for tests and constants; it panics on error.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// String returns the dotted-quad form.
func (a Addr) String() string {
	var b strings.Builder
	b.Grow(15)
	b.WriteString(strconv.Itoa(int(a >> 24)))
	b.WriteByte('.')
	b.WriteString(strconv.Itoa(int(a >> 16 & 0xff)))
	b.WriteByte('.')
	b.WriteString(strconv.Itoa(int(a >> 8 & 0xff)))
	b.WriteByte('.')
	b.WriteString(strconv.Itoa(int(a & 0xff)))
	return b.String()
}

// Netip converts to a net/netip address.
func (a Addr) Netip() netip.Addr {
	return netip.AddrFrom4([4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)})
}

// Slash24 returns the address of a's enclosing /24 block — the granularity
// Ark probes at and the typical granularity of block-level geolocation
// records (§5.2.3).
func (a Addr) Slash24() Prefix { return Prefix{Base: a &^ 0xff, Bits: 24} }

// Prefix is a CIDR block.
type Prefix struct {
	Base Addr  // first address; always aligned to Bits
	Bits uint8 // prefix length, 0..32
}

// ParsePrefix parses "a.b.c.d/n" and normalizes the base address.
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("ipx: prefix %q missing /", s)
	}
	a, err := ParseAddr(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil || bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("ipx: bad prefix length in %q", s)
	}
	p := Prefix{Base: a, Bits: uint8(bits)}
	p.Base = a & p.mask()
	return p, nil
}

// MustParsePrefix is ParsePrefix that panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

func (p Prefix) mask() Addr {
	if p.Bits == 0 {
		return 0
	}
	return Addr(^uint32(0) << (32 - p.Bits))
}

// Contains reports whether a falls inside p.
func (p Prefix) Contains(a Addr) bool { return a&p.mask() == p.Base }

// Size returns the number of addresses in p.
func (p Prefix) Size() uint64 { return 1 << (32 - p.Bits) }

// First returns the first address in p.
func (p Prefix) First() Addr { return p.Base }

// Last returns the last address in p.
func (p Prefix) Last() Addr { return p.Base + Addr(p.Size()-1) }

// Overlaps reports whether p and q share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	return p.First() <= q.Last() && q.First() <= p.Last()
}

// String returns the CIDR form.
func (p Prefix) String() string {
	return p.Base.String() + "/" + strconv.Itoa(int(p.Bits))
}

// Split returns p cut into 2^(newBits-p.Bits) sub-prefixes of length
// newBits. It panics if newBits < p.Bits or newBits > 32, which indicates a
// programming error in the caller.
func (p Prefix) Split(newBits uint8) []Prefix {
	if newBits < p.Bits || newBits > 32 {
		panic(fmt.Sprintf("ipx: cannot split %v into /%d", p, newBits))
	}
	n := 1 << (newBits - p.Bits)
	step := Addr(1) << (32 - newBits)
	out := make([]Prefix, n)
	for i := range out {
		out[i] = Prefix{Base: p.Base + Addr(i)*step, Bits: newBits}
	}
	return out
}
