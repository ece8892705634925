// Package rtt models packet delay over the synthetic Internet. It owns
// every delay constant: netsim prices its links with LinkOneWayMs,
// traceroute and atlas add PerHopMs and queueing noise per hop, and
// atlas draws each probe's access link from the last-mile samplers.
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

// The delay model, in line with published traceroute inflation studies.
const (
	// PathStretch multiplies the great-circle propagation delay to account
	// for fibre routes not following geodesics. Typical measured values
	// are 1.2-2.5.
	PathStretch = 1.5
	// MetroStretch replaces PathStretch on links shorter than MetroKm:
	// metro links run on near-direct dark fibre, and keeping metro
	// crossings fast lets the 0.5 ms proximity rule reach the transit
	// routers of a city, as it does in the paper's data.
	MetroStretch = 1.1
	MetroKm      = 60.0
	// LinkFixedMs is each link's one-way serialization cost on top of
	// its propagation delay.
	LinkFixedMs = 0.02
	// PerHopMs is the forwarding cost a traceroute adds for every hop
	// along its path. Modern metro hops add tens of microseconds, which
	// is what lets a probe see routers several hops away under the
	// paper's 0.5 ms bound.
	PerHopMs = 0.02
	// QueueMeanMs is the mean of the exponentially distributed queueing
	// delay every RTT sample adds.
	QueueMeanMs = 0.08
)

// The last-mile mixture. RIPE Atlas probes sit in homes, offices and
// data centres; delays to the first hop range from tens of microseconds
// (data-centre probes) to tens of milliseconds (DSL interleaving). A
// LastMileFast share of probes get a sub-half-millisecond access link,
// the rest a log-normal spread. Roughly a third of probes can then
// observe a sub-0.5 ms first hop, matching the yield the paper saw
// (1,387 probes contributed 0.5 ms-proximate hops out of the ~9.5k
// connected probes of the 2016 Atlas fleet).
const (
	LastMileFast         = 0.35
	LastMileSlowMedianMs = 4.0
	LastMileSlowSigma    = 1.0
)

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

// PropagationMs returns the deterministic (no-queueing) RTT between two
// points over a stretched fibre path.
func PropagationMs(a, b geo.Coordinate) float64 {
	return MinRTTMs(a, b) * PathStretch
}

// LinkOneWayMs returns the one-way delay of a link spanning km of
// great-circle distance: stretched propagation plus LinkFixedMs.
func LinkOneWayMs(km float64) float64 {
	stretch := PathStretch
	if km < MetroKm {
		stretch = MetroStretch
	}
	return km/KmPerMsOneWay*stretch + LinkFixedMs
}

// LastMileMs draws one residential or office probe's access-link RTT in
// milliseconds from the last-mile mixture.
func LastMileMs(rng *rand.Rand) float64 {
	if rng.Float64() < LastMileFast {
		return 0.05 + rng.Float64()*0.40
	}
	return LastMileSlowMedianMs * math.Exp(rng.NormFloat64()*LastMileSlowSigma)
}

// FacilityLinkMs draws the LAN-grade access-link RTT of a probe racked
// next to its first router, in milliseconds.
func FacilityLinkMs(rng *rand.Rand) float64 {
	return 0.04 + rng.Float64()*0.12
}
