// Package groundtruth builds the paper's two router-location ground-truth
// datasets (§2.3) and the correctness analyses over them (§3):
//
//   - the DNS-based dataset: rDNS names of Ark-observed interfaces under
//     the seven operator-confirmed domains, decoded with the DRoP rules;
//   - the RTT-proximity dataset: interfaces seen within 0.5 ms of a RIPE
//     Atlas probe, after disqualifying probes parked on default country
//     coordinates and probes that fail the RTT-nearby consistency check.
//
// Locations in the datasets come exclusively from hostnames and probe
// self-reports — never from the world's truth — so the datasets carry the
// same kinds of residual error the paper's do, and §3's validations are
// real checks, not tautologies.
package groundtruth

import (
	"sort"

	"routergeo/internal/geo"
	"routergeo/internal/ipx"
	"routergeo/internal/netsim"
)

// Method says how an entry's location was derived.
type Method uint8

const (
	// DNS entries decode a location hint in the interface's hostname.
	DNS Method = iota + 1
	// RTT entries inherit the location of an RTT-proximate probe.
	RTT
)

// String names the method.
func (m Method) String() string {
	switch m {
	case DNS:
		return "DNS-based"
	case RTT:
		return "RTT-proximity"
	default:
		return "unknown"
	}
}

// Entry is one ground-truth address.
type Entry struct {
	Iface   netsim.IfaceID
	Addr    ipx.Addr
	Coord   geo.Coordinate
	Country string // ISO2 of the claimed location
	Method  Method
	// Domain is the rule that decoded a DNS entry ("" for RTT entries).
	Domain string
	// ProbeID is set on RTT entries.
	ProbeID int
}

// Dataset is an ordered, indexed set of entries (one per address).
type Dataset struct {
	Name    string
	Entries []Entry
	byAddr  map[ipx.Addr]int
}

// NewDataset builds a dataset from entries, dropping duplicate addresses
// (first occurrence wins) and sorting by address.
func NewDataset(name string, entries []Entry) *Dataset {
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].Addr < entries[j].Addr })
	d := &Dataset{Name: name, byAddr: make(map[ipx.Addr]int, len(entries))}
	for _, e := range entries {
		if _, dup := d.byAddr[e.Addr]; dup {
			continue
		}
		d.byAddr[e.Addr] = len(d.Entries)
		d.Entries = append(d.Entries, e)
	}
	return d
}

// Len returns the number of addresses.
func (d *Dataset) Len() int { return len(d.Entries) }

// ByAddr fetches an entry by address.
func (d *Dataset) ByAddr(a ipx.Addr) (Entry, bool) {
	i, ok := d.byAddr[a]
	if !ok {
		return Entry{}, false
	}
	return d.Entries[i], true
}

// Countries returns the number of distinct claimed countries (Table 1).
func (d *Dataset) Countries() int {
	set := map[string]bool{}
	for _, e := range d.Entries {
		set[e.Country] = true
	}
	return len(set)
}

// UniqueCoords returns the number of distinct lat/lon pairs (Table 1).
func (d *Dataset) UniqueCoords() int {
	set := map[geo.Coordinate]bool{}
	for _, e := range d.Entries {
		set[e.Coord] = true
	}
	return len(set)
}

// RIRCounts breaks the dataset down by the registry serving each address
// (the Team Cymru whois column group of Table 1).
func (d *Dataset) RIRCounts(w *netsim.World) map[geo.RIR]int {
	out := map[geo.RIR]int{}
	for _, e := range d.Entries {
		out[w.Reg.RIROf(e.Addr)]++
	}
	return out
}

// TransitShare returns the fraction of addresses announced by transit
// ASes, per the registry's AS-rank classification (§2.3.3).
func (d *Dataset) TransitShare(w *netsim.World) float64 {
	if len(d.Entries) == 0 {
		return 0
	}
	n := 0
	for _, e := range d.Entries {
		if alloc, _, ok := w.Reg.Whois(e.Addr); ok && w.Reg.IsTransit(alloc.ASN) {
			n++
		}
	}
	return float64(n) / float64(len(d.Entries))
}

// Merge combines the DNS-based and RTT-proximity datasets into the
// 16,586-address-style evaluation set; addresses in both are kept only as
// DNS entries, as the paper does (§5.2.4).
func Merge(dns, rtt *Dataset) *Dataset {
	entries := make([]Entry, 0, dns.Len()+rtt.Len())
	entries = append(entries, dns.Entries...)
	for _, e := range rtt.Entries {
		if _, dup := dns.byAddr[e.Addr]; !dup {
			entries = append(entries, e)
		}
	}
	return NewDataset("ground-truth", entries)
}

// OverlapStats compares the locations two datasets claim for their common
// addresses (§3.1's DNS-vs-RTT and DNS-vs-1ms checks).
type OverlapStats struct {
	Common      int
	Within10Km  int
	Within40Km  int
	Within100Km int
	MaxKm       float64
}

// CompareOverlap computes agreement between two datasets.
func CompareOverlap(a, b *Dataset) OverlapStats {
	var s OverlapStats
	for _, e := range a.Entries {
		o, ok := b.ByAddr(e.Addr)
		if !ok {
			continue
		}
		s.Common++
		d := e.Coord.DistanceKm(o.Coord)
		if d <= 10 {
			s.Within10Km++
		}
		if d <= 40 {
			s.Within40Km++
		}
		if d <= 100 {
			s.Within100Km++
		}
		if d > s.MaxKm {
			s.MaxKm = d
		}
	}
	return s
}
