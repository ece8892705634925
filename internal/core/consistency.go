package core

import (
	"context"

	"routergeo/internal/geo"
	"routergeo/internal/geodb"
	"routergeo/internal/ipx"
	"routergeo/internal/obs"
	"routergeo/internal/stats"
)

// CountryAgreement counts pairwise country-level agreement over the
// addresses both databases answer (§5.1).
func CountryAgreement(ctx context.Context, a, b geodb.Provider, addrs []ipx.Addr) (agree, both int) {
	ctx, sp := obs.Start(ctx, "core.country_agreement")
	defer sp.End()
	sp.SetAttr("db_a", a.Name())
	sp.SetAttr("db_b", b.Name())
	sp.SetItems(int64(len(addrs)))
	workers := workersFor(len(addrs))
	sp.SetAttr("workers", workers)
	prog := obs.NewProgress("core.country_agreement "+a.Name()+"/"+b.Name(), int64(len(addrs)))
	defer prog.Finish()
	prefetch(ctx, a, addrs)
	prefetch(ctx, b, addrs)
	type partial struct{ agree, both int }
	parts := make([]slot[partial], workers)
	res := make([][]*resolver, workers)
	dbs := []geodb.Provider{a, b}
	runBlocks(len(addrs), blockSize, workers, func(wi, _, lo, hi int) {
		rs := res[wi]
		if rs == nil {
			rs = bindResolvers(dbs)
			res[wi] = rs
		}
		block := addrs[lo:hi]
		rs[0].resolve(block)
		rs[1].resolve(block)
		var p partial
		for k := range block {
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
		prog.Add(int64(len(block)))
		parts[wi].v.agree += p.agree
		parts[wi].v.both += p.both
	})
	for _, rs := range res {
		putResolvers(rs)
	}
	for i := range parts {
		agree += parts[i].v.agree
		both += parts[i].v.both
	}
	return agree, both
}

// CountryAgreementAll counts addresses on which *every* database agrees at
// country level (the paper's 95.8% over 1.64M addresses).
func CountryAgreementAll(ctx context.Context, dbs []geodb.Provider, addrs []ipx.Addr) (agree, total int) {
	ctx, sp := obs.Start(ctx, "core.country_agreement_all")
	defer sp.End()
	sp.SetAttr("dbs", len(dbs))
	sp.SetItems(int64(len(addrs)))
	workers := workersFor(len(addrs))
	sp.SetAttr("workers", workers)
	prog := obs.NewProgress("core.country_agreement_all", int64(len(addrs)))
	defer prog.Finish()
	for _, db := range dbs {
		prefetch(ctx, db, addrs)
	}
	total = len(addrs)
	parts := make([]slot[int], workers)
	res := make([][]*resolver, workers)
	runBlocks(len(addrs), blockSize, workers, func(wi, _, lo, hi int) {
		rs := res[wi]
		if rs == nil {
			rs = bindResolvers(dbs)
			res[wi] = rs
		}
		block := addrs[lo:hi]
		for _, r := range rs {
			r.resolve(block)
		}
		n := 0
		for k := range block {
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
				n++
			}
		}
		prog.Add(int64(len(block)))
		parts[wi].v += n
	})
	for _, rs := range res {
		putResolvers(rs)
	}
	for i := range parts {
		agree += parts[i].v
	}
	return agree, total
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
	ctx, sp := obs.Start(ctx, "core.pairwise_city")
	defer sp.End()
	sp.SetAttr("db_a", a.Name())
	sp.SetAttr("db_b", b.Name())
	sp.SetItems(int64(len(addrs)))
	workers := workersFor(len(addrs))
	sp.SetAttr("workers", workers)
	prog := obs.NewProgress("core.pairwise_city "+a.Name()+"/"+b.Name(), int64(len(addrs)))
	defer prog.Finish()
	prefetch(ctx, a, addrs)
	prefetch(ctx, b, addrs)
	parts := make([]slot[PairwiseCity], workers)
	res := make([][]*resolver, workers)
	bufs := make([]*[]float64, workers)
	dbs := []geodb.Provider{a, b}
	runBlocks(len(addrs), blockSize, workers, func(wi, _, lo, hi int) {
		rs := res[wi]
		if rs == nil {
			rs = bindResolvers(dbs)
			res[wi] = rs
			sb := samplePool.Get().(*[]float64)
			*sb = (*sb)[:0]
			bufs[wi] = sb
		}
		block := addrs[lo:hi]
		rs[0].resolve(block)
		rs[1].resolve(block)
		var p PairwiseCity
		s := *bufs[wi]
		for k := range block {
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
			s = append(s, d)
			if d > CityRangeKm {
				p.Over40Km++
			}
		}
		*bufs[wi] = s
		prog.Add(int64(len(block)))
		parts[wi].v.Both += p.Both
		parts[wi].v.Identical += p.Identical
		parts[wi].v.Over40Km += p.Over40Km
	})
	for _, rs := range res {
		putResolvers(rs)
	}
	var out PairwiseCity
	for i := range parts {
		out.Both += parts[i].v.Both
		out.Identical += parts[i].v.Identical
		out.Over40Km += parts[i].v.Over40Km
	}
	out.CDF = stats.FromSamples(mergeSamples(bufs))
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
	ctx, sp := obs.Start(ctx, "core.city_answered_in_all")
	defer sp.End()
	sp.SetAttr("dbs", len(dbs))
	sp.SetItems(int64(len(addrs)))
	workers := workersFor(len(addrs))
	sp.SetAttr("workers", workers)
	prog := obs.NewProgress("core.city_answered_in_all", int64(len(addrs)))
	defer prog.Finish()
	for _, db := range dbs {
		prefetch(ctx, db, addrs)
	}
	parts := make([][]ipx.Addr, numBlocks(len(addrs), blockSize))
	res := make([][]*resolver, workers)
	runBlocks(len(addrs), blockSize, workers, func(wi, bi, lo, hi int) {
		rs := res[wi]
		if rs == nil {
			rs = bindResolvers(dbs)
			res[wi] = rs
		}
		block := addrs[lo:hi]
		for _, r := range rs {
			r.resolve(block)
		}
		var keep []ipx.Addr
		for k := range block {
			all := true
			for _, r := range rs {
				rec, ok := r.rec(k)
				if !ok || !rec.HasCity() {
					all = false
					break
				}
			}
			if all {
				keep = append(keep, block[k])
			}
		}
		prog.Add(int64(len(block)))
		parts[bi] = keep
	})
	for _, rs := range res {
		putResolvers(rs)
	}
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
