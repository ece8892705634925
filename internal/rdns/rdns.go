// Package rdns synthesizes the reverse-DNS zone of the synthetic world:
// every operator names its router interfaces under its own domain with its
// own grammar, and a configurable share of those names embed a location
// hint (airport code, CLLI-style site code, or city name) exactly where
// the decode rules in internal/hints expect it.
//
// This substitutes for the paper's 905K rDNS lookups over the
// Ark-topo-router addresses (§2.3.1). The zone is churn-aware: paired with
// a netsim.Evolution it answers lookups "as of" any month, reproducing the
// §3.1 hostname-churn analysis (renames, moves with and without hostname
// updates, record loss, hints that stop decoding).
package rdns

import (
	"fmt"
	"math/rand"
	"strings"

	"routergeo/internal/gazetteer"
	"routergeo/internal/hints"
	"routergeo/internal/netsim"
)

// Config seeds the zone.
type Config struct {
	// Seed drives the coverage and hint draws.
	Seed int64
}

// DefaultConfig returns the seed the experiments use.
func DefaultConfig() Config {
	return Config{Seed: 1}
}

// PTR coverage, matching the paper's observations.
const (
	// ptrCoverage is the probability a synthetic operator's interface has
	// a PTR record at all. The paper resolved hostnames for 905K of 1,638K
	// addresses (55%).
	ptrCoverage float64 = 0.55
	// seedPTRCoverage applies to the seven seeded ground-truth domains,
	// whose operators name their gear diligently.
	seedPTRCoverage float64 = 0.97
)

// Zone is the synthesized PTR zone for one world.
type Zone struct {
	w      *netsim.World
	dict   *hints.Dictionary
	hasPTR []bool
	hinted []bool
	names  []string // epoch-0 names, "" when hasPTR is false
}

// Synthesize builds the zone. Deterministic for a given cfg.Seed.
func Synthesize(w *netsim.World, dict *hints.Dictionary, cfg Config) *Zone {
	rng := rand.New(rand.NewSource(cfg.Seed))
	seedDomains := map[string]bool{}
	for _, d := range hints.GroundTruthDomains() {
		seedDomains[d] = true
	}
	z := &Zone{
		w:      w,
		dict:   dict,
		hasPTR: make([]bool, w.NumInterfaces()),
		hinted: make([]bool, w.NumInterfaces()),
		names:  make([]string, w.NumInterfaces()),
	}
	for i := range w.Interfaces {
		id := netsim.IfaceID(i)
		as := w.ASOfIface(id)
		cover := ptrCoverage
		if seedDomains[as.Domain] {
			cover = seedPTRCoverage
		}
		if rng.Float64() >= cover {
			continue
		}
		z.hasPTR[i] = true
		z.hinted[i] = rng.Float64() < as.HintCoverage
		z.names[i] = z.render(id, 0, w.CityOf(id), z.hinted[i])
	}
	return z
}

// Lookup returns the interface's hostname at collection time (month 0).
func (z *Zone) Lookup(i netsim.IfaceID) (string, bool) {
	if !z.hasPTR[i] {
		return "", false
	}
	return z.names[i], true
}

// LookupAt answers a PTR query as of the given month under the supplied
// churn timeline. The semantics mirror §3.1:
//
//   - lost records stop resolving;
//   - a move with a diligent operator renames the host to the new site;
//   - a move with a sloppy operator keeps the old name (stale hint);
//   - an in-place rename changes labels but encodes the same site;
//   - a few renames land on hint-free names (undecodable).
func (z *Zone) LookupAt(i netsim.IfaceID, evo *netsim.Evolution, months float64) (string, bool) {
	if !z.hasPTR[i] {
		return "", false
	}
	if evo.RDNSLost(i, months) {
		return "", false
	}
	switch {
	case evo.HintUndecodable(i, months):
		return z.undecodableName(i), true
	case evo.Moved(i, months) && !evo.HintStale(i, months):
		return z.render(i, 1, evo.CityAt(i, months), z.hinted[i]), true
	case evo.Renamed(i, months):
		return z.render(i, 1, z.w.CityOf(i), z.hinted[i]), true
	default:
		return z.names[i], true
	}
}

// render produces a hostname for an interface under its operator's
// grammar. epoch perturbs the numeric fields so renames yield different
// strings; the interface ID keeps names unique within a zone.
func (z *Zone) render(i netsim.IfaceID, epoch int, city gazetteer.City, hinted bool) string {
	as := z.w.ASOfIface(i)
	// The prime offset keeps every modulus used below nonzero across
	// epochs, so a rename always yields a different string.
	n := int(i) + epoch*1000003
	tok := ""
	if hinted {
		if t, ok := z.dict.BestToken(city); ok {
			tok = t
		}
	}
	switch as.HintScheme {
	case "cogent":
		if tok != "" {
			return fmt.Sprintf("be%d.ccr%02d.%s%02d.atlas.%s", 1000+n, n%80+10, tok, n%9+1, as.Domain)
		}
		return fmt.Sprintf("be%d.ccr%02d.core%02d.atlas.%s", 1000+n, n%80+10, n%9+1, as.Domain)
	case "ntt":
		cc := strings.ToLower(city.Country)
		if tok != "" {
			// Real NTT style: ae-5.r23.dllstx09.us.bb.gin.ntt.net; our site
			// codes end in the country code already (dllsus).
			return fmt.Sprintf("ae-%d.r%d.%s%02d.%s.bb.gin.%s", n%64, n, siteToken(z.dict, city, tok), n%9+1, cc, as.Domain)
		}
		return fmt.Sprintf("ae-%d.r%d.core%02d.%s.bb.gin.%s", n%64, n, n%9+1, cc, as.Domain)
	case "seabone":
		if tok != "" {
			if iata := z.dict.IATA(city); iata != "" {
				return fmt.Sprintf("xe-%d.%s%d.%s.%s", n, z.dict.Name(city), n%9+1, iata, as.Domain)
			}
			return fmt.Sprintf("xe-%d.%s%d.bb.%s", n, tok, n%9+1, as.Domain)
		}
		return fmt.Sprintf("xe-%d.trunk%d.bb.%s", n%16, n, as.Domain)
	case "pnap":
		if tok != "" {
			return fmt.Sprintf("core%d.%s%03d.%s", n, tok, n%500, as.Domain)
		}
		return fmt.Sprintf("core%d.pod%03d.%s", n, n%500, as.Domain)
	case "peak10":
		if tok != "" {
			return fmt.Sprintf("%s%02d-rtr%d.%s", tok, n%20+1, n, as.Domain)
		}
		return fmt.Sprintf("mgmt%02d-rtr%d.%s", n%20+1, n, as.Domain)
	case "digitalwest":
		if tok != "" {
			return fmt.Sprintf("edge%d.%s.%s", n, tok, as.Domain)
		}
		return fmt.Sprintf("edge%d.mgmt.%s", n, as.Domain)
	case "belwue":
		if tok != "" {
			return fmt.Sprintf("%s-rtr%d.%s", z.dict.Name(city), n, as.Domain)
		}
		return fmt.Sprintf("bw-rtr%d.%s", n, as.Domain)
	default: // "generic"
		if tok != "" {
			return fmt.Sprintf("r%d.%s%02d.%s", n, tok, n%9+1, as.Domain)
		}
		return fmt.Sprintf("r%d.pop%02d.%s", n, n%99, as.Domain)
	}
}

// undecodableName is the address-derived PTR some operators fall back to;
// it carries no location information.
func (z *Zone) undecodableName(i netsim.IfaceID) string {
	as := z.w.ASOfIface(i)
	a := z.w.Interfaces[i].Addr
	return fmt.Sprintf("ip-%d-%d-%d-%d.%s", a>>24, a>>16&0xff, a>>8&0xff, a&0xff, as.Domain)
}

// siteToken prefers the CLLI-style site code for operators (like NTT) that
// use site codes rather than airport codes, falling back to the supplied
// token.
func siteToken(d *hints.Dictionary, city gazetteer.City, fallback string) string {
	if s := d.SiteCode(city); s != "" {
		return s
	}
	return fallback
}
