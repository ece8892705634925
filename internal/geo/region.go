package geo

import "math/rand"

// RIR identifies one of the five Regional Internet Registries. The paper
// breaks down every regional analysis (Table 1, Figures 3 and 5) by RIR.
type RIR uint8

const (
	// RIRUnknown marks addresses whose registry could not be determined.
	RIRUnknown RIR = iota
	// ARIN covers the United States, Canada and parts of the Caribbean.
	ARIN
	// RIPENCC covers Europe, the Middle East and the former USSR.
	RIPENCC
	// APNIC covers the Asia-Pacific region.
	APNIC
	// LACNIC covers Latin America and the Caribbean.
	LACNIC
	// AFRINIC covers Africa.
	AFRINIC
)

// RIRs lists the five registries in the order the paper's tables use
// (Table 1: ARIN, APNIC, AFRINIC, LACNIC, RIPENCC).
var RIRs = [...]RIR{ARIN, APNIC, AFRINIC, LACNIC, RIPENCC}

// SampleRIR draws a registry with probability proportional to its
// weight, walking RIRs in order with one rng draw. A registry missing
// from weights weighs nothing.
func SampleRIR(rng *rand.Rand, weights map[RIR]float64) RIR {
	total := 0.0
	for _, r := range RIRs {
		total += weights[r]
	}
	x := rng.Float64() * total
	for _, r := range RIRs {
		x -= weights[r]
		if x < 0 {
			return r
		}
	}
	return RIPENCC
}

// String returns the registry's conventional name.
func (r RIR) String() string {
	switch r {
	case ARIN:
		return "ARIN"
	case RIPENCC:
		return "RIPENCC"
	case APNIC:
		return "APNIC"
	case LACNIC:
		return "LACNIC"
	case AFRINIC:
		return "AFRINIC"
	default:
		return "UNKNOWN"
	}
}
