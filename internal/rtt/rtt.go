// Package rtt models packet delay over the synthetic Internet.
//
// The model matters for one load-bearing property the paper relies on
// (§2.3.2): a 0.5 ms RTT between two hosts bounds their distance at 50 km,
// "likely much less due to inflation in RTT measurement". Signals in fibre
// propagate at roughly 2/3 of c, i.e. ~200 km/ms one-way, so x ms of RTT
// bounds the one-way distance at 100·x km; the paper's 0.5 ms ⇒ 50 km
// bound follows. Our model therefore never lets an RTT undercut the
// speed-of-light-in-fibre floor for the great-circle distance, and adds
// only non-negative inflation (path stretch, serialization, queueing) on
// top — exactly the asymmetry the proximity method depends on.
package rtt

import (
	"math"
	"math/rand"

	"routergeo/internal/geo"
)

// KmPerMsOneWay is the one-way propagation speed in fibre, ~2/3 c,
// expressed in km per millisecond.
const KmPerMsOneWay = 200.0

// MinRTTMs returns the physical lower bound on the round-trip time between
// two points: great-circle distance there and back at fibre speed.
func MinRTTMs(a, b geo.Coordinate) float64 {
	return 2 * a.DistanceKm(b) / KmPerMsOneWay
}

// MaxDistanceKmForRTT inverts the bound: an observed RTT of ms milliseconds
// places the endpoints within the returned great-circle distance. This is
// the constraint the RTT-proximity ground-truth method applies with
// ms = 0.5 (⇒ 50 km).
func MaxDistanceKmForRTT(ms float64) float64 {
	return ms * KmPerMsOneWay / 2
}

// Model generates RTT samples with configurable inflation. The zero value
// is not usable; call DefaultModel or fill every field.
type Model struct {
	// PathStretch multiplies the great-circle propagation delay to account
	// for fibre routes not following geodesics. Typical measured values are
	// 1.2-2.5; we default to 1.5.
	PathStretch float64
	// PerHopMs is the fixed per-hop forwarding/serialization cost added for
	// every router on the path (both directions), in milliseconds.
	PerHopMs float64
	// QueueMeanMs is the mean of the exponentially distributed queueing
	// delay added per measurement (not per hop).
	QueueMeanMs float64
}

// DefaultModel returns delay parameters in line with published traceroute
// inflation studies: 1.5× geographic stretch, 20 µs per-hop forwarding,
// 80 µs mean queueing. The per-hop costs matter for the RTT-proximity
// method: modern metro hops add tens of microseconds, which is what lets
// a probe see routers several hops away under the paper's 0.5 ms bound.
func DefaultModel() Model {
	return Model{PathStretch: 1.5, PerHopMs: 0.02, QueueMeanMs: 0.08}
}

// PropagationMs returns the deterministic (no-queueing) RTT between two
// points over hops intermediate routers.
func (m Model) PropagationMs(a, b geo.Coordinate, hops int) float64 {
	return MinRTTMs(a, b)*m.PathStretch + float64(hops)*m.PerHopMs
}

// LastMile models the access link between a measurement probe and its
// first-hop router. RIPE Atlas probes sit in homes, offices and data
// centres; delays to the first hop range from tens of microseconds
// (data-centre probes) to tens of milliseconds (DSL interleaving). The
// distribution below is a mixture: a fraction Fast of probes get a
// sub-half-millisecond access link, the rest get a log-normal spread.
type LastMile struct {
	// Fast is the fraction of probes with data-centre-grade access
	// (uniform 0.05-0.45 ms).
	Fast float64
	// SlowMedianMs and SlowSigma parameterize the log-normal delay of the
	// remaining probes.
	SlowMedianMs float64
	SlowSigma    float64
}

// DefaultLastMile returns a mixture in which roughly a third of probes can
// observe a sub-0.5 ms first hop, matching the yield the paper saw (1,387
// probes contributed 0.5 ms-proximate hops out of the ~9.5k connected
// probes of the 2016 Atlas fleet).
func DefaultLastMile() LastMile {
	return LastMile{Fast: 0.35, SlowMedianMs: 4.0, SlowSigma: 1.0}
}

// Sample draws one probe's access-link RTT in milliseconds.
func (l LastMile) Sample(rng *rand.Rand) float64 {
	if rng.Float64() < l.Fast {
		return 0.05 + rng.Float64()*0.40
	}
	return l.SlowMedianMs * math.Exp(rng.NormFloat64()*l.SlowSigma)
}
