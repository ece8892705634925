package netsim

import (
	"math"
	"math/rand"

	"routergeo/internal/gazetteer"
	"routergeo/internal/geo"
	"routergeo/internal/ipx"
)

// EvolutionParams sets the per-month hazard rates of the churn processes
// the paper measures in §3.1: interface moves (address reassigned to a
// host elsewhere), hostname renames without a move, and rDNS record loss.
type EvolutionParams struct {
	MoveRatePerMonth   float64
	RenameRatePerMonth float64
	LossRatePerMonth   float64
	// UndecodableFrac of renames produce a hostname with no hint matching
	// any DRoP rule (the paper's 1.5% of changed names).
	UndecodableFrac float64
	// StaleHintFrac of moves keep the old hostname, leaving a misleading
	// location hint (§3.1 discusses these as a residual error source).
	StaleHintFrac float64
}

// DefaultEvolutionParams calibrates the hazards to the paper's 16-month
// observations (§3.1): 6.9% of addresses lost rDNS, 24% changed
// hostname, and 7.4% of all addresses changed location. The observed
// fractions decompose over two independent processes: Moved covers every
// location change (including stale-hint moves that keep the old name),
// while Renamed is the union of in-place renames and moves whose
// operator updated the hostname — so the in-place rename marginal is
// backed out of the observed 24% rather than hazarded directly:
//
//	P(renamed at 16) = 1 - (1 - pRename)·(1 - pMove·(1 - staleFrac))
func DefaultEvolutionParams() EvolutionParams {
	const (
		horizonMonths = 16.0
		movedFrac     = 0.074 // all location changes, stale-hint moves included
		renamedFrac   = 0.24  // all hostname changes, updated moves included
		lostFrac      = 0.069
		undecodable   = 0.02
		staleHint     = 0.06
	)
	hazard := func(p float64) float64 { return -math.Log(1-p) / horizonMonths }
	renameOnly := 1 - (1-renamedFrac)/(1-movedFrac*(1-staleHint))
	return EvolutionParams{
		MoveRatePerMonth:   hazard(movedFrac),
		RenameRatePerMonth: hazard(renameOnly),
		LossRatePerMonth:   hazard(lostFrac),
		UndecodableFrac:    undecodable,
		StaleHintFrac:      staleHint,
	}
}

// Evolution is a sampled churn timeline over a world's interfaces. Query
// it at any horizon (months) to get a consistent view: the paper needs the
// same world at +0 (Ark extraction), +10 months (the Giotsas 1ms-RTT
// dataset) and +16 months (the hostname-churn re-check).
type Evolution struct {
	w        *World
	moveAt   []float64
	renameAt []float64
	loseAt   []float64
	undec    []bool
	stale    []bool
	newCity  []gazetteer.City
	newCoord []geo.Coordinate
}

// Evolve samples a churn timeline. Deterministic for a given rng state.
func (w *World) Evolve(rng *rand.Rand, p EvolutionParams) *Evolution {
	n := len(w.Interfaces)
	e := &Evolution{
		w:        w,
		moveAt:   make([]float64, n),
		renameAt: make([]float64, n),
		loseAt:   make([]float64, n),
		undec:    make([]bool, n),
		stale:    make([]bool, n),
		newCity:  make([]gazetteer.City, n),
		newCoord: make([]geo.Coordinate, n),
	}
	draw := func(rate float64) float64 {
		if rate <= 0 {
			return math.Inf(1)
		}
		return rng.ExpFloat64() / rate
	}
	for i := range w.Interfaces {
		e.moveAt[i] = draw(p.MoveRatePerMonth)
		e.renameAt[i] = draw(p.RenameRatePerMonth)
		e.loseAt[i] = draw(p.LossRatePerMonth)
		e.undec[i] = rng.Float64() < p.UndecodableFrac
		e.stale[i] = rng.Float64() < p.StaleHintFrac

		// Destination if this interface ever moves: another PoP of the same
		// AS when one exists (the paper's NTT example moved Dallas → Miami
		// within ntt.net), otherwise another city in the same country.
		// The k-th PoP in another city is drawn by counting those PoPs,
		// then walking to the one rng.Intn picked.
		as := w.ASOfIface(IfaceID(i))
		cur := w.CityOf(IfaceID(i))
		elsewhere := func(c *gazetteer.City) bool { return c.ID != cur.ID }
		candidates := 0
		for pi := range as.PoPs {
			if elsewhere(&as.PoPs[pi].City) {
				candidates++
			}
		}
		var dest gazetteer.City
		if candidates > 0 {
			k := rng.Intn(candidates)
			for pi := range as.PoPs {
				if c := &as.PoPs[pi].City; elsewhere(c) {
					if k == 0 {
						dest = *c
						break
					}
					k--
				}
			}
		} else {
			// Single-PoP operator: relocate within the country, or anywhere
			// if the country has only this one city embedded.
			for tries := 0; ; tries++ {
				cc := cur.Country
				if tries >= 8 {
					cc = ""
				}
				dest = w.Gaz.SampleCity(rng, cc)
				if dest.ID != cur.ID {
					break
				}
			}
		}
		e.newCity[i] = dest
		e.newCoord[i] = dest.Coord.Offset(rng.Float64()*CityJitterKm, rng.Float64()*360)
	}
	return e
}

// BlockMajorityCityAt is World.BlockMajorityCity at a churn horizon: the
// city hosting the most interfaces of addr's /24 block once every move
// up to the horizon has been applied, with the same tie-break. At
// months == 0 it returns exactly what World.BlockMajorityCity returns,
// which is what keeps an evolved vendor build at horizon zero
// byte-identical to the un-evolved one.
func (e *Evolution) BlockMajorityCityAt(a ipx.Addr, months float64) (gazetteer.City, bool) {
	return majorityCity(tallyCities(e.w.BlockIfaces(a), func(id IfaceID) gazetteer.City {
		return e.CityAt(id, months)
	}))
}

// Moved reports whether the interface's address was reassigned to a host
// at a different location by the given horizon.
func (e *Evolution) Moved(i IfaceID, months float64) bool {
	return e.moveAt[i] <= months
}

// CityAt returns the interface's true city at the horizon.
func (e *Evolution) CityAt(i IfaceID, months float64) gazetteer.City {
	if e.Moved(i, months) {
		return e.newCity[i]
	}
	return e.w.CityOf(i)
}

// CoordAt returns the interface's true coordinates at the horizon.
func (e *Evolution) CoordAt(i IfaceID, months float64) geo.Coordinate {
	if e.Moved(i, months) {
		return e.newCoord[i]
	}
	return e.w.CoordOf(i)
}

// RDNSLost reports whether the interface no longer has a PTR record at the
// horizon.
func (e *Evolution) RDNSLost(i IfaceID, months float64) bool {
	return e.loseAt[i] <= months
}

// Renamed reports whether the hostname at the horizon differs from the
// original: either an in-place rename fired, or the interface moved and
// its hostname was updated to the new site.
func (e *Evolution) Renamed(i IfaceID, months float64) bool {
	if e.renameAt[i] <= months {
		return true
	}
	return e.Moved(i, months) && !e.stale[i]
}

// HintUndecodable reports whether a renamed hostname carries no decodable
// location hint at the horizon.
func (e *Evolution) HintUndecodable(i IfaceID, months float64) bool {
	return e.Renamed(i, months) && e.undec[i]
}

// HintStale reports whether the interface moved but kept its old hostname,
// so any hint in it points at the previous location.
func (e *Evolution) HintStale(i IfaceID, months float64) bool {
	return e.Moved(i, months) && e.stale[i]
}
