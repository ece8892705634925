package netsim

import "routergeo/internal/geo"

// SeedAS pins a specific, named operator into the world. The defaults
// reproduce the paper's seven DNS-ground-truth domains (§2.3.1) at the
// reproduction's scale, with headquarters and footprints modelled on the
// real operators.
type SeedAS struct {
	ASN          uint32
	Name         string
	Domain       string
	HQCountry    string // ISO2
	HQCity       string
	RIR          geo.RIR
	Transit      bool
	PoPs         int     // total PoP count
	ForeignShare float64 // fraction of PoPs outside the home country
	// ForeignRIRBias weights which registry region foreign PoPs land in;
	// nil means pickPoPsFrom's default spread.
	ForeignRIRBias map[geo.RIR]float64
	HintScheme     string
	HintCoverage   float64
	// PoPRouters overrides the per-PoP router cap for this operator
	// (0 = routersPerTransitPoPMax or routersPerStubPoPMax). The seven
	// ground-truth operators are large networks with many routers per
	// site; scaling them up keeps the DNS-based ground truth dominant over
	// the RTT-based one, as in the paper (11,857 vs 4,838).
	PoPRouters int
}

// Config parameterizes world generation: the seed and the world's size.
// The world model's calibration is fixed below: the const block, two
// per-RIR maps and the seeded operators.
type Config struct {
	Seed int64

	// ASes is the total number of autonomous systems including seeds.
	// Build reads zero as DefaultConfig's.
	ASes int
}

// DefaultConfig returns the scale the experiments run at: a world of a few
// thousand routers and some tens of thousands of interfaces that builds in
// well under a second.
func DefaultConfig() Config {
	return Config{Seed: 1, ASes: 900}
}

// The world model, calibrated once to the paper's numbers (DESIGN.md §2).
const (
	// transitFraction of the synthetic (non-seed) ASes are transit
	// networks with multi-city footprints.
	transitFraction float64 = 0.13
	// foreignShare is the fraction of a multinational's PoPs abroad.
	foreignShare float64 = 0.30

	// PoPs per AS and routers per PoP.
	transitPoPsMin, transitPoPsMax = 4, 14
	stubPoPsMax                    = 2
	routersPerTransitPoPMax        = 5
	routersPerStubPoPMax           = 6
	// extraIntraASLinkProb adds chords beyond the PoP ring.
	extraIntraASLinkProb float64 = 0.45
	// peeringRadiusKm links two transit ASes when both have PoPs within
	// this distance of each other.
	peeringRadiusKm float64 = 60
	peeringProb     float64 = 0.35

	// sharedBlockProb is the probability that an interface is numbered out
	// of the AS's shared (cross-PoP) /24 pool instead of its PoP-local
	// block, producing the non-co-located blocks of §5.2.3.
	sharedBlockProb float64 = 0.17

	// CityJitterKm bounds how far a router sits from its city's centre.
	CityJitterKm float64 = 12

	// genericHintCoverage is the default fraction of hint-bearing
	// hostnames for synthetic operators' domains.
	genericHintCoverage float64 = 0.35
)

// multinationalFraction of synthetic transit ASes operate PoPs outside
// their home country. Keyed by the org's RIR so regions can differ: the
// paper's Figure 3 shows LACNIC ground truth with zero country-level
// error, consistent with single-country operators there.
var multinationalFraction = map[geo.RIR]float64{
	geo.ARIN:    0.30,
	geo.RIPENCC: 0.30,
	geo.APNIC:   0.16,
	geo.LACNIC:  0.0,
	geo.AFRINIC: 0.10,
}

// rirWeights controls where synthetic orgs are registered. It roughly
// tracks routed-address share (ARIN-heavy).
var rirWeights = map[geo.RIR]float64{
	geo.ARIN:    0.36,
	geo.RIPENCC: 0.33,
	geo.APNIC:   0.19,
	geo.LACNIC:  0.07,
	geo.AFRINIC: 0.05,
}

// defaultSeedASes models the paper's seven ground-truth domains. PoP
// counts are scaled so the relative sizes of the per-domain address
// counts in §2.3.1 (cogent 6,462 … belwue 23) are preserved.
func defaultSeedASes() []SeedAS {
	euBias := map[geo.RIR]float64{geo.RIPENCC: 0.8, geo.APNIC: 0.15, geo.LACNIC: 0.05}
	return []SeedAS{
		{
			ASN: 174, Name: "Cogent Communications", Domain: "cogentco.com",
			HQCountry: "US", HQCity: "Washington", RIR: geo.ARIN, Transit: true,
			PoPs: 48, ForeignShare: 0.34, ForeignRIRBias: euBias,
			HintScheme: "cogent", HintCoverage: 0.92, PoPRouters: 12,
		},
		{
			ASN: 2914, Name: "NTT Global IP Network", Domain: "ntt.net",
			HQCountry: "US", HQCity: "Dallas", RIR: geo.ARIN, Transit: true,
			PoPs: 26, ForeignShare: 0.38,
			ForeignRIRBias: map[geo.RIR]float64{geo.RIPENCC: 0.45, geo.APNIC: 0.45, geo.LACNIC: 0.1},
			HintScheme:     "ntt", HintCoverage: 0.92, PoPRouters: 10,
		},
		{
			// NTT's Asian backbone: same ntt.net rDNS zone, APNIC-registered
			// org — this is why the paper's DNS-based ground truth has an
			// APNIC column (560 addresses) although all seven domains belong
			// to US/EU-headquartered operators.
			ASN: 2915, Name: "NTT Asia", Domain: "ntt.net",
			HQCountry: "JP", HQCity: "Tokyo", RIR: geo.APNIC, Transit: true,
			PoPs: 10, ForeignShare: 0.30,
			ForeignRIRBias: map[geo.RIR]float64{geo.APNIC: 0.7, geo.RIPENCC: 0.15, geo.ARIN: 0.15},
			HintScheme:     "ntt", HintCoverage: 0.92, PoPRouters: 8,
		},
		{
			ASN: 6762, Name: "Telecom Italia Sparkle", Domain: "seabone.net",
			HQCountry: "IT", HQCity: "Rome", RIR: geo.RIPENCC, Transit: true,
			PoPs: 18, ForeignShare: 0.50,
			ForeignRIRBias: map[geo.RIR]float64{geo.RIPENCC: 0.55, geo.ARIN: 0.2, geo.LACNIC: 0.15, geo.APNIC: 0.1},
			HintScheme:     "seabone", HintCoverage: 0.90, PoPRouters: 9,
		},
		{
			ASN: 14744, Name: "Internap", Domain: "pnap.net",
			HQCountry: "US", HQCity: "Atlanta", RIR: geo.ARIN, Transit: true,
			PoPs: 16, ForeignShare: 0.12,
			ForeignRIRBias: map[geo.RIR]float64{geo.RIPENCC: 0.5, geo.APNIC: 0.5},
			HintScheme:     "pnap", HintCoverage: 0.90, PoPRouters: 10,
		},
		{
			ASN: 23317, Name: "Peak 10", Domain: "peak10.net",
			HQCountry: "US", HQCity: "Charlotte", RIR: geo.ARIN, Transit: false,
			PoPs: 5, ForeignShare: 0,
			HintScheme: "peak10", HintCoverage: 0.85, PoPRouters: 5,
		},
		{
			ASN: 7306, Name: "Digital West", Domain: "digitalwest.net",
			HQCountry: "US", HQCity: "San Luis Obispo", RIR: geo.ARIN, Transit: false,
			PoPs: 2, ForeignShare: 0,
			HintScheme: "digitalwest", HintCoverage: 0.85, PoPRouters: 3,
		},
		{
			ASN: 553, Name: "BelWue", Domain: "belwue.de",
			HQCountry: "DE", HQCity: "Stuttgart", RIR: geo.RIPENCC, Transit: false,
			PoPs: 3, ForeignShare: 0,
			HintScheme: "belwue", HintCoverage: 0.85, PoPRouters: 3,
		},
	}
}
