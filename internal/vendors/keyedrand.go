package vendors

import "math/rand"

// The keyed evidence draws take a handful of numbers from a fresh
// math/rand source per key. Seeding that source fills its 607-word
// table, which costs far more than the draws; newKeyedRand returns the
// same stream and computes each early draw from the seed alone.
//
// rand.NewSource(seed) reduces the seed to s in [1, 2³¹−2] and seeds
//
//	v[i] = cooked[i] ^ (x₁<<40 ^ x₂<<20 ^ x₃)
//
// where x₁, x₂ and x₃ are steps 21+3i, 22+3i and 23+3i of the Lehmer
// generator x ← 48271·x mod (2³¹−1) started at s, and cooked is a fixed
// table. Its k-th Uint64 (k from 1) adds the word at the feed index,
// which starts at rngFeed and counts down, to the word at the tap index,
// which starts at rngLen and counts down, both wrapping around the
// table, and stores the sum at the feed index. Until the tap reaches the
// first word the feed overwrote, at draw rngTap+1, draw k is therefore
// v[rngFeed−k] + v[rngLen−k].
const (
	rngLen  = 607
	rngTap  = 273
	rngFeed = rngLen - rngTap

	lehmerMul = 48271
	lehmerMod = 1<<31 - 1
)

// keyedTab holds math/rand's cooked table and the Lehmer multipliers
// that take a reduced seed to each word's first step.
var keyedTab = newKeyedTable()

type keyedTable struct {
	cooked [rngLen]uint64
	// pow[i] is 48271^(21+3i) mod (2³¹−1).
	pow [rngLen]uint64
}

// newKeyedTable recovers cooked from the first rngLen draws of
// rand.NewSource(1), whose seeded words v are cooked ^ mix(1, ·). Draws
// rngTap+1 to rngLen add v at the feed index to a draw rngTap earlier,
// which gives v[0..rngFeed−rngTap−1] and v[rngFeed..rngLen−1]; the first
// rngTap draws then give the rest.
func newKeyedTable() *keyedTable {
	t := new(keyedTable)
	p := uint64(1)
	for j := 0; j < 21; j++ {
		p = lehmer(p)
	}
	for i := range t.pow {
		t.pow[i] = p
		p = lehmer(lehmer(lehmer(p)))
	}

	src := rand.NewSource(1).(rand.Source64)
	var out [rngLen + 1]uint64
	for k := 1; k <= rngLen; k++ {
		out[k] = src.Uint64()
	}
	var v [rngLen]uint64
	for k := rngTap + 1; k <= rngLen; k++ {
		feed := rngFeed - k
		if feed < 0 {
			feed += rngLen
		}
		v[feed] = out[k] - out[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		v[rngFeed-k] = out[k] - v[rngLen-k]
	}
	for i := range t.cooked {
		t.cooked[i] = v[i] ^ t.mix(1, i)
	}
	return t
}

// lehmer takes one step of math/rand's seeding generator.
func lehmer(x uint64) uint64 { return x * lehmerMul % lehmerMod }

// mix returns the seed-dependent part of word i for reduced seed s.
func (t *keyedTable) mix(s uint64, i int) uint64 {
	x1 := s * t.pow[i] % lehmerMod
	x2 := lehmer(x1)
	x3 := lehmer(x2)
	return x1<<40 ^ x2<<20 ^ x3
}

// word returns v[i] as rand.NewSource seeds it for reduced seed s.
func (t *keyedTable) word(s uint64, i int) uint64 { return t.cooked[i] ^ t.mix(s, i) }

// newKeyedRand returns a generator that yields exactly what
// rand.New(rand.NewSource(seed)) yields.
func newKeyedRand(seed int64) *rand.Rand {
	src := new(keyedSource)
	src.Seed(seed)
	return rand.New(src)
}

// keyedSource is rand.NewSource's stream without its table: the first
// rngTap draws are computed from the seed, and a later draw seeds a real
// source and skips the draws already returned.
type keyedSource struct {
	s    uint64 // the seed as rand.NewSource reduces it
	n    int    // draws returned
	rest rand.Source64
}

func (r *keyedSource) Seed(seed int64) {
	seed %= lehmerMod
	if seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = 89482311
	}
	*r = keyedSource{s: uint64(seed)}
}

func (r *keyedSource) Uint64() uint64 {
	if r.n < rngTap {
		r.n++
		return keyedTab.word(r.s, rngFeed-r.n) + keyedTab.word(r.s, rngLen-r.n)
	}
	if r.rest == nil {
		// The reduction maps s to itself, so this is seed's stream.
		r.rest = rand.NewSource(int64(r.s)).(rand.Source64)
		for i := 0; i < rngTap; i++ {
			r.rest.Uint64()
		}
	}
	return r.rest.Uint64()
}

func (r *keyedSource) Int63() int64 { return int64(r.Uint64() &^ (1 << 63)) }
