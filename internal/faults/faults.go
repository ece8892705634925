// Package faults injects network failures deterministically, so the
// remote-evaluation path can be tested under outage conditions that are
// reproducible down to the individual request. A Policy is a named,
// seeded set of fault rules (latency spikes, 5xx bursts, 429 throttling,
// connection resets, truncated JSON bodies, slow-loris responses); an
// Injector draws from the policy's own seeded RNG to decide, request by
// request, which fault (if any) to apply.
//
// Middleware wraps an http.Handler (geoserve -chaos) in the schedule.
// The decision schedule is a pure function of the policy seed and the
// arrival order of requests: the i-th request to reach the injector
// always receives the i-th decision. Under concurrency the goroutine
// interleaving decides which request is "i-th", but the decision
// sequence itself never changes —
// that is the property the chaos acceptance suite leans on when it
// asserts that a faulted sweep still produces byte-identical output.
package faults

import (
	"math/rand"
	"sync"
	"time"
)

// Kind names one fault mechanism.
type Kind string

const (
	// KindLatency delays the request by Rule.Delay before serving it.
	KindLatency Kind = "latency"
	// KindError answers with Rule.Status (a 5xx) without touching the
	// wrapped handler.
	KindError Kind = "error"
	// KindRateLimit answers 429 with a Retry-After header derived from
	// Rule.RetryAfter.
	KindRateLimit Kind = "rate-limit"
	// KindReset kills the connection: the server aborts the response
	// mid-flight.
	KindReset Kind = "reset"
	// KindTruncate serves the real response but cuts the body off after
	// Rule.TruncateAt bytes, leaving unparseable JSON.
	KindTruncate Kind = "truncate"
	// KindSlowLoris serves the real response dripped out in
	// Rule.ChunkBytes pieces with Rule.Delay pauses between them.
	KindSlowLoris Kind = "slowloris"
)

// Rule is one fault mechanism armed with a trigger probability.
type Rule struct {
	Kind Kind
	// Rate is the per-request trigger probability in [0,1].
	Rate float64
	// Burst extends a trigger over the next Burst requests as well, so
	// outages arrive in runs rather than as isolated blips.
	Burst int
	// Delay is the injected latency (KindLatency) or the per-chunk pause
	// (KindSlowLoris).
	Delay time.Duration
	// Status is the synthetic response status for KindError.
	Status int
	// RetryAfter is the throttle hint for KindRateLimit, rounded up to
	// whole seconds on the wire.
	RetryAfter time.Duration
	// TruncateAt is how many body bytes KindTruncate lets through.
	TruncateAt int
	// ChunkBytes is the drip size for KindSlowLoris.
	ChunkBytes int
}

// Policy is a named, seeded set of fault rules. The zero Seed means 1 so
// a hand-built Policy is still deterministic.
type Policy struct {
	Name  string
	Seed  int64
	Rules []Rule
}

// Decision is the injector's verdict for one request. The zero Decision
// (Kind == "") means the request passes through untouched.
type Decision struct {
	Kind       Kind
	Delay      time.Duration
	Status     int
	RetryAfter time.Duration
	TruncateAt int
	ChunkBytes int
}

// Option configures an Injector.
type Option func(*Injector)

// WithSleep replaces the injector's sleep function (latency and
// slow-loris pauses); TestMiddlewareSlowLoris counts its pauses through
// it, and the chaos sweeps run their schedules without real waiting.
func WithSleep(fn func(time.Duration)) Option {
	return func(in *Injector) { in.sleep = fn }
}

// WithObserver registers a callback invoked once per injected fault with
// its kind — the hook geoserve uses to tally chaos counters into the
// server's metrics registry.
func WithObserver(fn func(Kind)) Option {
	return func(in *Injector) { in.observe = fn }
}

// WithExemptPaths lists URL paths the Middleware never faults (health
// checks, stats endpoints), so chaos testing does not blind the
// monitoring that is supposed to watch it.
func WithExemptPaths(paths ...string) Option {
	return func(in *Injector) {
		if in.exempt == nil {
			in.exempt = make(map[string]bool, len(paths))
		}
		for _, p := range paths {
			in.exempt[p] = true
		}
	}
}

// Injector draws fault decisions from a policy's seeded RNG. Safe for
// concurrent use; every decision is taken under one lock so the schedule
// stays a pure function of the seed and request order.
type Injector struct {
	policy  Policy
	sleep   func(time.Duration)
	observe func(Kind)
	exempt  map[string]bool

	mu    sync.Mutex
	rng   *rand.Rand
	burst []int
}

// New builds an Injector for the policy, normalizing zero rule fields to
// usable defaults (503 for errors, 1s Retry-After, 64-byte truncation,
// 512-byte slow-loris chunks).
func New(p Policy, opts ...Option) *Injector {
	seed := p.Seed
	if seed == 0 {
		seed = 1
	}
	rules := make([]Rule, len(p.Rules))
	copy(rules, p.Rules)
	for i := range rules {
		r := &rules[i]
		switch r.Kind {
		case KindLatency:
			if r.Delay <= 0 {
				r.Delay = 100 * time.Millisecond
			}
		case KindError:
			if r.Status < 500 || r.Status > 599 {
				r.Status = 503
			}
		case KindRateLimit:
			if r.RetryAfter <= 0 {
				r.RetryAfter = time.Second
			}
		case KindTruncate:
			if r.TruncateAt <= 0 {
				r.TruncateAt = 64
			}
		case KindSlowLoris:
			if r.Delay <= 0 {
				r.Delay = 20 * time.Millisecond
			}
			if r.ChunkBytes <= 0 {
				r.ChunkBytes = 512
			}
		}
	}
	p.Rules = rules
	in := &Injector{
		policy: p,
		sleep:  time.Sleep,
		rng:    rand.New(rand.NewSource(seed)),
		burst:  make([]int, len(rules)),
	}
	for _, o := range opts {
		o(in)
	}
	return in
}

// Next takes the decision for the next request. Every rule draws from
// the RNG on every call, in rule order, so each rule's trigger schedule
// depends only on the seed and the request index — never on what its
// sibling rules decided. When several rules fire at once the first one
// in the policy wins.
func (in *Injector) Next() Decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	decided := -1
	for i := range in.policy.Rules {
		r := &in.policy.Rules[i]
		draw := in.rng.Float64()
		fire := false
		switch {
		case in.burst[i] > 0:
			in.burst[i]--
			fire = true
		case draw < r.Rate:
			fire = true
			in.burst[i] = r.Burst
		}
		if fire && decided < 0 {
			decided = i
		}
	}
	if decided < 0 {
		return Decision{}
	}
	r := in.policy.Rules[decided]
	if in.observe != nil {
		in.observe(r.Kind)
	}
	return Decision{
		Kind:       r.Kind,
		Delay:      r.Delay,
		Status:     r.Status,
		RetryAfter: r.RetryAfter,
		TruncateAt: r.TruncateAt,
		ChunkBytes: r.ChunkBytes,
	}
}
