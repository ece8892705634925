// Package core implements the paper's contribution: the evaluation
// methodology for router geolocation in databases (§4). Given any set of
// geodb.Providers it measures
//
//   - coverage: the fraction of addresses with country- and city-level
//     answers;
//   - consistency: pairwise country agreement and pairwise city-level
//     coordinate-distance CDFs with the 40 km city-range threshold;
//   - coordinate validity: database city coordinates against the
//     gazetteer, and the same city across databases;
//   - accuracy against ground truth: overall, per RIR, per country and
//     per ground-truth method, as geolocation-error CDFs and
//     within-40 km rates;
//   - the ARIN case study (§5.2.3) and the §6 recommendation synthesis.
//
// Nothing in this package knows about the simulator; it consumes opaque
// Providers and ground-truth targets, so it would work unchanged against
// real database snapshots.
package core

import (
	"context"
	"sort"

	"routergeo/internal/geo"
	"routergeo/internal/geodb"
	"routergeo/internal/groundtruth"
	"routergeo/internal/ipx"
	"routergeo/internal/netsim"
	"routergeo/internal/obs"
	"routergeo/internal/stats"
)

// CityRangeKm is the paper's city-range threshold: two locations within
// 40 km are considered the same city (§4).
const CityRangeKm = 40.0

// Target is one ground-truth address to score against.
type Target struct {
	Addr  ipx.Addr
	Truth geo.Coordinate
	// TruthVec caches Truth's unit-sphere vector for the accuracy
	// sweep's distance kernel (geo.ArcKm). TargetsFromDataset fills it;
	// the zero value means "not cached" and the sweep computes it on
	// the fly, so hand-built targets score identically.
	TruthVec geo.Vec3
	Country  string // ISO2 of the true location
	RIR      geo.RIR
	Method   groundtruth.Method
}

// TargetsFromDataset converts a ground-truth dataset into evaluation
// targets, resolving each address's RIR through whois as the paper does
// with Team Cymru.
func TargetsFromDataset(w *netsim.World, ds *groundtruth.Dataset) []Target {
	out := make([]Target, 0, ds.Len())
	for _, e := range ds.Entries {
		out = append(out, Target{
			Addr:     e.Addr,
			Truth:    e.Coord,
			TruthVec: e.Coord.Vec(),
			Country:  e.Country,
			RIR:      w.Reg.RIROf(e.Addr),
			Method:   e.Method,
		})
	}
	return out
}

// Coverage counts how many of a set of addresses a database answers at
// each resolution (§5.1, §5.2.1).
type Coverage struct {
	Total   int
	Country int
	City    int
}

// CountryPct and CityPct return coverage fractions.
func (c Coverage) CountryPct() float64 { return stats.Fraction(c.Country, c.Total) }
func (c Coverage) CityPct() float64    { return stats.Fraction(c.City, c.Total) }

// Prefetcher is the optional bulk-resolution hook a Provider may
// implement (httpapi.RemoteProvider does). Evaluation entry points hand
// the full address list over before the first Lookup, letting a remote
// provider pipeline batched requests instead of paying one round trip
// per address. A prefetch failure is non-fatal: per-address Lookup
// remains the fallback, and transport-aware providers report outages
// through their own error surface.
type Prefetcher interface {
	Prefetch(ctx context.Context, addrs []ipx.Addr) error
}

// prefetch offers addrs to db if it supports bulk resolution, bounded by
// the evaluation's ctx so cancellation stops the batched requests too.
func prefetch(ctx context.Context, db geodb.Provider, addrs []ipx.Addr) {
	if p, ok := db.(Prefetcher); ok {
		_ = p.Prefetch(ctx, addrs)
	}
}

// prefetchTargets is prefetch over a target list's addresses.
func prefetchTargets(ctx context.Context, db geodb.Provider, targets []Target) {
	if _, ok := db.(Prefetcher); !ok {
		return
	}
	addrs := make([]ipx.Addr, len(targets))
	for i, t := range targets {
		addrs[i] = t.Addr
	}
	prefetch(ctx, db, addrs)
}

// MeasureCoverage queries every address once. Large inputs are scored by
// the parallel engine; the result is identical either way.
func MeasureCoverage(ctx context.Context, db geodb.Provider, addrs []ipx.Addr) Coverage {
	ctx, sp := obs.Start(ctx, "core.coverage")
	defer sp.End()
	sp.SetAttr("db", db.Name())
	sp.SetItems(int64(len(addrs)))
	workers := workersFor(len(addrs))
	sp.SetAttr("workers", workers)
	prog := obs.NewProgress("core.coverage "+db.Name(), int64(len(addrs)))
	defer prog.Finish()
	// One up-front prefetch for the whole sweep: a remote provider
	// pipelines the full batch through its own worker pool instead of
	// being serialized by per-chunk calls inside the workers.
	prefetch(ctx, db, addrs)
	parts := make([]slot[Coverage], workers)
	res := make([]*resolver, workers)
	runBlocks(len(addrs), blockSize, workers, func(wi, _, lo, hi int) {
		r := res[wi]
		if r == nil {
			r = resolverPool.Get().(*resolver)
			r.bind(db)
			res[wi] = r
		}
		block := addrs[lo:hi]
		r.resolve(block)
		c := Coverage{Total: len(block)}
		for k := range block {
			rec, ok := r.rec(k)
			if !ok {
				continue
			}
			if rec.HasCountry() {
				c.Country++
			}
			if rec.HasCity() {
				c.City++
			}
		}
		prog.Add(int64(len(block)))
		p := &parts[wi].v
		p.Total += c.Total
		p.Country += c.Country
		p.City += c.City
	})
	putResolvers(res)
	var c Coverage
	for i := range parts {
		c.Total += parts[i].v.Total
		c.Country += parts[i].v.Country
		c.City += parts[i].v.City
	}
	return c
}

// Accuracy scores one database against ground truth (§5.2).
type Accuracy struct {
	// Total is the number of targets evaluated.
	Total int
	// CountryAnswered/CountryCorrect cover country-level accuracy.
	CountryAnswered int
	CountryCorrect  int
	// CityAnswered targets had city-level answers; Within40Km of them fall
	// inside the city range; ErrorCDF holds their geolocation errors
	// (Figures 2 and 5).
	CityAnswered int
	Within40Km   int
	ErrorCDF     *stats.ECDF
}

// CountryCoverage, CountryAccuracy, CityCoverage, CityAccuracy return the
// paper's headline fractions.
func (a Accuracy) CountryCoverage() float64 { return stats.Fraction(a.CountryAnswered, a.Total) }
func (a Accuracy) CountryAccuracy() float64 {
	return stats.Fraction(a.CountryCorrect, a.CountryAnswered)
}
func (a Accuracy) CityCoverage() float64 { return stats.Fraction(a.CityAnswered, a.Total) }
func (a Accuracy) CityAccuracy() float64 { return stats.Fraction(a.Within40Km, a.CityAnswered) }

// MeasureAccuracy scores db on every target. Large inputs fan out over
// the parallel engine, each worker appending raw error samples into a
// pooled buffer; the buffers concatenate into the result CDF, whose
// sorted points are identical whatever the accumulation order.
func MeasureAccuracy(ctx context.Context, db geodb.Provider, targets []Target) Accuracy {
	ctx, sp := obs.Start(ctx, "core.accuracy")
	defer sp.End()
	sp.SetAttr("db", db.Name())
	sp.SetItems(int64(len(targets)))
	workers := workersFor(len(targets))
	sp.SetAttr("workers", workers)
	prefetchTargets(ctx, db, targets)
	parts := make([]slot[Accuracy], workers)
	res := make([]*resolver, workers)
	bufs := make([]*[]float64, workers)
	runBlocks(len(targets), blockSize, workers, func(wi, _, lo, hi int) {
		r := res[wi]
		if r == nil {
			r = resolverPool.Get().(*resolver)
			r.bind(db)
			res[wi] = r
			sb := samplePool.Get().(*[]float64)
			*sb = (*sb)[:0]
			bufs[wi] = sb
		}
		block := targets[lo:hi]
		r.resolveTargets(block)
		var acc Accuracy
		acc.Total = len(block)
		s := *bufs[wi]
		for k := range block {
			t := &block[k]
			rec, ok := r.rec(k)
			if !ok {
				continue
			}
			if rec.HasCountry() {
				acc.CountryAnswered++
				if rec.Country == t.Country {
					acc.CountryCorrect++
				}
			}
			if rec.HasCity() {
				acc.CityAnswered++
				tv := t.TruthVec
				if tv.IsZero() {
					tv = t.Truth.Vec()
				}
				d := geo.ArcKm(r.vec(k, rec), tv)
				s = append(s, d)
				if d <= CityRangeKm {
					acc.Within40Km++
				}
			}
		}
		*bufs[wi] = s
		p := &parts[wi].v
		p.Total += acc.Total
		p.CountryAnswered += acc.CountryAnswered
		p.CountryCorrect += acc.CountryCorrect
		p.CityAnswered += acc.CityAnswered
		p.Within40Km += acc.Within40Km
	})
	putResolvers(res)
	var out Accuracy
	for i := range parts {
		p := &parts[i].v
		out.Total += p.Total
		out.CountryAnswered += p.CountryAnswered
		out.CountryCorrect += p.CountryCorrect
		out.CityAnswered += p.CityAnswered
		out.Within40Km += p.Within40Km
	}
	out.ErrorCDF = stats.FromSamples(mergeSamples(bufs))
	return out
}

// AccuracyByRIR breaks targets down by registry (Figures 3 and 5).
func AccuracyByRIR(ctx context.Context, db geodb.Provider, targets []Target) map[geo.RIR]Accuracy {
	grouped := map[geo.RIR][]Target{}
	for _, t := range targets {
		grouped[t.RIR] = append(grouped[t.RIR], t)
	}
	return accuracyByGroup(ctx, db, grouped)
}

// AccuracyByCountry breaks targets down by true country (Figure 4).
func AccuracyByCountry(ctx context.Context, db geodb.Provider, targets []Target) map[string]Accuracy {
	grouped := map[string][]Target{}
	for _, t := range targets {
		grouped[t.Country] = append(grouped[t.Country], t)
	}
	return accuracyByGroup(ctx, db, grouped)
}

// AccuracyByMethod splits targets by ground-truth method (§5.2.4).
func AccuracyByMethod(ctx context.Context, db geodb.Provider, targets []Target) map[groundtruth.Method]Accuracy {
	grouped := map[groundtruth.Method][]Target{}
	for _, t := range targets {
		grouped[t.Method] = append(grouped[t.Method], t)
	}
	return accuracyByGroup(ctx, db, grouped)
}

// accuracyByGroup measures independent target groups one after
// another; a group large enough for the engine still fans out inside its
// own MeasureAccuracy call.
func accuracyByGroup[K comparable](ctx context.Context, db geodb.Provider, grouped map[K][]Target) map[K]Accuracy {
	out := make(map[K]Accuracy, len(grouped))
	for k, ts := range grouped {
		out[k] = MeasureAccuracy(ctx, db, ts)
	}
	return out
}

// TopCountries returns the ISO2 codes of the n countries with the most
// targets, ordered by descending count (Figure 4's x-axis).
func TopCountries(targets []Target, n int) []string {
	counts := map[string]int{}
	for _, t := range targets {
		counts[t.Country]++
	}
	out := make([]string, 0, len(counts))
	for cc := range counts {
		out = append(out, cc)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if counts[a] != counts[b] {
			return counts[a] > counts[b]
		}
		return a < b
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// SharedIncorrect counts, for a reference country-level mistake set, how
// many targets a group of databases all geolocate to the *same wrong
// country* — the paper's observation that IP2Location and both MaxMinds
// share roughly two thirds of their wrong answers (Figure 4 discussion).
func SharedIncorrect(dbs []geodb.Provider, targets []Target) (shared int, wrongPerDB []int) {
	workers := workersFor(len(targets))
	type partial struct {
		shared int
		wrong  []int
	}
	parts := make([]slot[partial], workers)
	res := make([][]*resolver, workers)
	runBlocks(len(targets), blockSize, workers, func(wi, _, lo, hi int) {
		rs := res[wi]
		if rs == nil {
			rs = bindResolvers(dbs)
			res[wi] = rs
			parts[wi].v.wrong = make([]int, len(dbs))
		}
		block := targets[lo:hi]
		for _, r := range rs {
			r.resolveTargets(block)
		}
		p := &parts[wi].v
		answers := make([]string, len(dbs))
		for k := range block {
			t := &block[k]
			allSameWrong := true
			for i, r := range rs {
				rec, ok := r.rec(k)
				if !ok || !rec.HasCountry() {
					allSameWrong = false
					answers[i] = ""
					continue
				}
				answers[i] = rec.Country
				if rec.Country != t.Country {
					p.wrong[i]++
				}
			}
			if !allSameWrong {
				continue
			}
			first := answers[0]
			if first == t.Country {
				continue
			}
			same := true
			for _, a := range answers[1:] {
				if a != first {
					same = false
					break
				}
			}
			if same {
				p.shared++
			}
		}
	})
	for _, rs := range res {
		putResolvers(rs)
	}
	wrongPerDB = make([]int, len(dbs))
	for i := range parts {
		p := &parts[i].v
		shared += p.shared
		for i, n := range p.wrong {
			wrongPerDB[i] += n
		}
	}
	return shared, wrongPerDB
}

// bindResolvers mints one worker's resolver per provider. The pool Gets
// stay inline per the poolescape rule's pairing with putResolvers at
// sweep end.
func bindResolvers(dbs []geodb.Provider) []*resolver {
	rs := make([]*resolver, len(dbs))
	for i, db := range dbs {
		r := resolverPool.Get().(*resolver)
		r.bind(db)
		rs[i] = r
	}
	return rs
}
