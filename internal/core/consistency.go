package core

import (
	"context"

	"routergeo/internal/geo"
	"routergeo/internal/geodb"
	"routergeo/internal/ipx"
	"routergeo/internal/stats"
)

// CountryAgreement counts pairwise country-level agreement over the
// addresses both databases answer (§5.1).
func CountryAgreement(ctx context.Context, a, b geodb.Provider, addrs []ipx.Addr) (agree, both int) {
	type partial struct{ agree, both int }
	parts := sweep(ctx, "core.country_agreement", []geodb.Provider{a, b}, addrs,
		func(p *partial, _, lo, hi int, rs []*resolver) {
			for k := range hi - lo {
				ra, okA := rs[0].rec(k)
				rb, okB := rs[1].rec(k)
				if !okA || !okB || !ra.HasCountry() || !rb.HasCountry() {
					continue
				}
				p.both++
				if ra.Country == rb.Country {
					p.agree++
				}
			}
		})
	for _, p := range parts {
		agree += p.agree
		both += p.both
	}
	return agree, both
}

// CountryAgreementAll counts addresses on which *every* database agrees at
// country level (the paper's 95.8% over 1.64M addresses).
func CountryAgreementAll(ctx context.Context, dbs []geodb.Provider, addrs []ipx.Addr) (agree, total int) {
	parts := sweep(ctx, "core.country_agreement_all", dbs, addrs,
		func(n *int, _, lo, hi int, rs []*resolver) {
			for k := range hi - lo {
				country := ""
				ok := true
				for _, r := range rs {
					rec, found := r.rec(k)
					if !found || !rec.HasCountry() {
						ok = false
						break
					}
					if country == "" {
						country = rec.Country
					} else if rec.Country != country {
						ok = false
						break
					}
				}
				if ok {
					*n++
				}
			}
		})
	for _, n := range parts {
		agree += n
	}
	return agree, len(addrs)
}

// PairwiseCity compares two databases' city-level coordinates over a set
// of addresses (Figure 1). Only addresses with city answers in *both*
// databases contribute. Identical coordinates are counted separately and
// excluded from the CDF, matching the figure's truncation of the 68%
// identical MaxMind pairs.
type PairwiseCity struct {
	Both      int
	Identical int
	Over40Km  int
	CDF       *stats.ECDF
}

// MeasurePairwiseCity computes the Figure 1 comparison for one pair.
func MeasurePairwiseCity(ctx context.Context, a, b geodb.Provider, addrs []ipx.Addr) PairwiseCity {
	type partial struct {
		PairwiseCity
		samples []float64
	}
	parts := sweep(ctx, "core.pairwise_city", []geodb.Provider{a, b}, addrs,
		func(p *partial, _, lo, hi int, rs []*resolver) {
			for k := range hi - lo {
				ra, okA := rs[0].rec(k)
				rb, okB := rs[1].rec(k)
				if !okA || !okB || !ra.HasCity() || !rb.HasCity() {
					continue
				}
				p.Both++
				if ra.Coord == rb.Coord {
					p.Identical++
					continue
				}
				d := geo.ArcKm(rs[0].vec(k, ra), rs[1].vec(k, rb))
				p.samples = append(p.samples, d)
				if d > CityRangeKm {
					p.Over40Km++
				}
			}
		})
	var out PairwiseCity
	samples := make([][]float64, len(parts))
	for i, p := range parts {
		out.Both += p.Both
		out.Identical += p.Identical
		out.Over40Km += p.Over40Km
		samples[i] = p.samples
	}
	out.CDF = stats.FromSamples(joinSamples(samples))
	return out
}

// DisagreeOver40Pct returns the fraction of compared addresses the two
// databases place more than 40 km apart — the paper's headline "at least
// 29% city-level disagreements" metric.
func (p PairwiseCity) DisagreeOver40Pct() float64 {
	return stats.Fraction(p.Over40Km, p.Both)
}

// CityAnsweredInAll filters addrs to those with city-level coordinates in
// every database — the ~692K-address subset Figure 1 is computed over.
// Per-block survivor lists concatenate in block order, so the output
// preserves input order exactly as the serial loop does.
func CityAnsweredInAll(ctx context.Context, dbs []geodb.Provider, addrs []ipx.Addr) []ipx.Addr {
	parts := make([][]ipx.Addr, numBlocks(len(addrs), blockSize))
	sweep(ctx, "core.city_answered_in_all", dbs, addrs,
		func(_ *struct{}, bi, lo, hi int, rs []*resolver) {
			var keep []ipx.Addr
			for k, a := range addrs[lo:hi] {
				all := true
				for _, r := range rs {
					rec, ok := r.rec(k)
					if !ok || !rec.HasCity() {
						all = false
						break
					}
				}
				if all {
					keep = append(keep, a)
				}
			}
			parts[bi] = keep
		})
	if len(parts) == 1 {
		return parts[0]
	}
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make([]ipx.Addr, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}
