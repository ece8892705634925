package netsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"runtime/debug"
	"testing"
)

// worldDigest is the SHA-256 of everything Build decides: every router
// (AS, PoP, coordinate bits), every interface (address, router, link),
// every link (ends, interfaces, delay bits) and every AS's prefixes, in
// slice order.
func worldDigest(w *World) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i := range w.Routers {
		r := &w.Routers[i]
		put(uint64(r.AS))
		put(uint64(r.PoP))
		put(math.Float64bits(r.Coord.Lat))
		put(math.Float64bits(r.Coord.Lon))
	}
	for _, f := range w.Interfaces {
		put(uint64(f.Addr))
		put(uint64(f.Router))
		put(uint64(f.Link))
	}
	for _, l := range w.Links {
		put(uint64(l.A))
		put(uint64(l.B))
		put(uint64(l.AIface))
		put(uint64(l.BIface))
		put(math.Float64bits(l.OneWayMs))
	}
	for ai := range w.ASes {
		as := &w.ASes[ai]
		put(uint64(as.ASN))
		put(uint64(len(as.Prefixes)))
		for _, p := range as.Prefixes {
			put(uint64(p.Base))
			put(uint64(p.Bits))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestWorldDigests pins the built world byte for byte at sizes the
// repository's golden files do not reach: every PoP, router, link and
// address the seeded draws of Build choose, a stub's uplink to its
// nearest transit provider included (one Intn over the routers of the
// winning AS's nearest PoP). A faster build must keep them. A float's
// last bit may differ on another GOARCH or GOAMD64 level, so the test
// skips there.
func TestWorldDigests(t *testing.T) {
	if target := buildTarget(); target != "GOARCH=amd64 GOAMD64=v1" {
		t.Skipf("world digests are recorded for GOARCH=amd64 GOAMD64=v1; this is %s", target)
	}
	for _, tc := range []struct {
		seed int64
		ases int
		want string
	}{
		{1, 3600, "652c82c8f54b229d6d09e16cf1a56143a619bb6ca96186afb60eb6aa2ca557a2"},
		{7, 3600, "04a6789ba6584feaaceddc365f94f0d4e7e6d1423f72f90f20fb1096073260af"},
		{1, 14400, "dbf8371116c84ac67ecf76777bb7221881cc150bc848a2213b807279b975f01d"},
	} {
		if tc.ases > 3600 && testing.Short() {
			t.Logf("seed %d, %d ASes: skipped under -short", tc.seed, tc.ases)
			continue
		}
		cfg := DefaultConfig()
		cfg.Seed = tc.seed
		cfg.ASes = tc.ases
		w, err := Build(cfg)
		if err != nil {
			t.Fatalf("seed %d, %d ASes: Build: %v", tc.seed, tc.ases, err)
		}
		if got := worldDigest(w); got != tc.want {
			t.Errorf("seed %d, %d ASes: world digest %s, want %s", tc.seed, tc.ases, got, tc.want)
		}
	}
}

// buildTarget names the GOARCH and, on amd64, the GOAMD64 level the test
// binary was built for.
func buildTarget() string {
	target := "GOARCH=" + runtime.GOARCH
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				target += " GOAMD64=" + s.Value
			}
		}
	}
	return target
}
