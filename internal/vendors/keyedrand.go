package vendors

import "math/rand"

// newKeyedRand returns the generator of one keyed evidence draw. A key
// takes only a handful of numbers, and math/rand's own source fills a
// 607-word table per seed, which costs far more than the draws, so the
// source is splitmix64, whose state is one word: the key.
func newKeyedRand(seed int64) *rand.Rand {
	return rand.New(&splitMix64{state: uint64(seed)})
}

// splitMix64 is a rand.Source64: each draw advances the state by the
// golden-ratio increment and returns the state mixed by Stafford's
// variant 13 finalizer.
type splitMix64 struct{ state uint64 }

func (s *splitMix64) Seed(seed int64) { s.state = uint64(seed) }

func (s *splitMix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (s *splitMix64) Int63() int64 { return int64(s.Uint64() >> 1) }
