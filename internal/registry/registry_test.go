package registry

import (
	"testing"

	"routergeo/internal/geo"
	"routergeo/internal/ipx"
)

func newTestRegistry(t *testing.T) (*Registry, OrgID, ipx.Prefix) {
	t.Helper()
	r := New(nil)
	org := r.RegisterOrg("Example Transit", "US", "Dallas", geo.ARIN)
	if err := r.BindAS(65001, org); err != nil {
		t.Fatal(err)
	}
	p, err := r.Allocate(org, 65001, 16)
	if err != nil {
		t.Fatal(err)
	}
	return r, org, p
}

func TestWhoisResolvesAllocation(t *testing.T) {
	r, org, p := newTestRegistry(t)
	if err := r.Freeze(); err != nil {
		t.Fatal(err)
	}
	alloc, o, ok := r.Whois(p.First() + 42)
	if !ok {
		t.Fatal("Whois miss inside allocation")
	}
	if alloc.ASN != 65001 || alloc.Org != org || alloc.RIR != geo.ARIN {
		t.Errorf("allocation = %+v", alloc)
	}
	if o.Name != "Example Transit" || o.HQCity != "Dallas" {
		t.Errorf("org = %+v", o)
	}
}

func TestWhoisMissOutsideAllocations(t *testing.T) {
	r, _, _ := newTestRegistry(t)
	if err := r.Freeze(); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := r.Whois(ipx.MustParseAddr("203.0.113.1")); ok {
		t.Error("Whois should miss for unallocated space")
	}
	if got := r.RIROf(ipx.MustParseAddr("203.0.113.1")); got != geo.RIRUnknown {
		t.Errorf("RIROf unallocated = %v", got)
	}
}

func TestAllocationsComeFromOwnRIRPool(t *testing.T) {
	r := New(nil)
	pools := DefaultPools()
	for _, rir := range geo.RIRs {
		org := r.RegisterOrg("org-"+rir.String(), "US", "X", rir)
		p, err := r.Allocate(org, ASN(64512)+ASN(rir), 20)
		if err != nil {
			t.Fatalf("allocate in %v: %v", rir, err)
		}
		found := false
		for _, pool := range pools[rir] {
			if pool.Overlaps(p) {
				found = true
			}
		}
		if !found {
			t.Errorf("%v allocation %v outside that RIR's pools", rir, p)
		}
	}
}

func TestAllocationsDisjoint(t *testing.T) {
	r := New(nil)
	org := r.RegisterOrg("o", "DE", "Berlin", geo.RIPENCC)
	var prefixes []ipx.Prefix
	for i := 0; i < 200; i++ {
		p, err := r.Allocate(org, 65002, 20)
		if err != nil {
			t.Fatal(err)
		}
		prefixes = append(prefixes, p)
	}
	// Freeze indexes the allocations with ipx.NewFlatIndex, which
	// rejects overlaps; reaching here without error proves disjointness.
	if err := r.Freeze(); err != nil {
		t.Fatal(err)
	}
	_ = prefixes
}

func TestAllocateSpillsToNextPool(t *testing.T) {
	// A tiny custom pool set: two /24s for ARIN. Allocating two /24s must
	// succeed (second from the second pool), a third must fail.
	pools := map[geo.RIR][]ipx.Prefix{
		geo.ARIN: {ipx.MustParsePrefix("192.0.2.0/24"), ipx.MustParsePrefix("198.51.100.0/24")},
	}
	r := New(pools)
	org := r.RegisterOrg("o", "US", "X", geo.ARIN)
	p1, err := r.Allocate(org, 65003, 24)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := r.Allocate(org, 65003, 24)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Overlaps(p2) {
		t.Error("pool spill produced overlapping prefixes")
	}
	if _, err := r.Allocate(org, 65003, 24); err == nil {
		t.Error("third /24 should exhaust both pools")
	}
}

func TestBindASRejectsDuplicates(t *testing.T) {
	r := New(nil)
	a := r.RegisterOrg("a", "US", "X", geo.ARIN)
	b := r.RegisterOrg("b", "US", "Y", geo.ARIN)
	if err := r.BindAS(65010, a); err != nil {
		t.Fatal(err)
	}
	if err := r.BindAS(65010, b); err == nil {
		t.Error("rebinding an AS must fail")
	}
	if err := r.BindAS(65011, 9999); err == nil {
		t.Error("binding to unknown org must fail")
	}
}

func TestTransitClassification(t *testing.T) {
	r := New(nil)
	r.MarkTransit(65020)
	if !r.IsTransit(65020) {
		t.Error("marked AS should be transit")
	}
	if r.IsTransit(65021) {
		t.Error("unmarked AS should not be transit")
	}
}

func TestAllocationsSortedFeed(t *testing.T) {
	r := New(nil)
	orgR := r.RegisterOrg("r", "DE", "Berlin", geo.RIPENCC)
	orgA := r.RegisterOrg("a", "US", "Dallas", geo.ARIN)
	// Allocate in an order that is not address order across RIRs.
	if _, err := r.Allocate(orgR, 1, 20); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Allocate(orgA, 2, 20); err != nil {
		t.Fatal(err)
	}
	allocs := r.Allocations()
	if len(allocs) != 2 {
		t.Fatalf("got %d allocations", len(allocs))
	}
	if allocs[0].Prefix.Base > allocs[1].Prefix.Base {
		t.Error("Allocations not sorted by address")
	}
}

func TestMutationAfterFreezePanics(t *testing.T) {
	r, org, _ := newTestRegistry(t)
	if err := r.Freeze(); err != nil {
		t.Fatal(err)
	}
	assertPanics := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s after Freeze should panic", name)
			}
		}()
		fn()
	}
	assertPanics("Allocate", func() { _, _ = r.Allocate(org, 65001, 24) })
	assertPanics("RegisterOrg", func() { r.RegisterOrg("x", "US", "X", geo.ARIN) })
	assertPanics("BindAS", func() { _ = r.BindAS(65099, org) })
}

func TestFreezeIdempotent(t *testing.T) {
	r, _, _ := newTestRegistry(t)
	if err := r.Freeze(); err != nil {
		t.Fatal(err)
	}
	if err := r.Freeze(); err != nil {
		t.Errorf("second Freeze: %v", err)
	}
}

func TestWhoisBeforeFreezePanics(t *testing.T) {
	r, _, p := newTestRegistry(t)
	defer func() {
		if recover() == nil {
			t.Error("Whois before Freeze should panic")
		}
	}()
	r.Whois(p.First())
}

func TestDefaultPoolsShape(t *testing.T) {
	pools := DefaultPools()
	for _, rir := range geo.RIRs {
		if len(pools[rir]) == 0 {
			t.Errorf("no pool for %v", rir)
		}
	}
	// ARIN must hold the most space: the paper's ground truth is 64% ARIN
	// and the world builder needs room to reflect that.
	size := func(ps []ipx.Prefix) (n uint64) {
		for _, p := range ps {
			n += p.Size()
		}
		return
	}
	arin := size(pools[geo.ARIN])
	for _, rir := range []geo.RIR{geo.RIPENCC, geo.APNIC, geo.LACNIC, geo.AFRINIC} {
		if size(pools[rir]) >= arin {
			t.Errorf("%v pool >= ARIN pool", rir)
		}
	}
	// Pools must be pairwise disjoint across RIRs.
	var all []ipx.Prefix
	for _, ps := range pools {
		all = append(all, ps...)
	}
	for i := range all {
		for j := i + 1; j < len(all); j++ {
			if all[i].Overlaps(all[j]) {
				t.Errorf("pools overlap: %v and %v", all[i], all[j])
			}
		}
	}
}
