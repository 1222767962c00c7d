package rng

import (
	"math"
	"math/bits"
)

// Stream is a single pseudo-random stream. The zero value is not valid; use
// New or NewForNode.
type Stream struct {
	s [4]uint64
}

// splitMix64 advances x by the SplitMix64 sequence and returns the output.
// It is used only to expand seeds into full generator state.
func splitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a stream seeded from seed.
func New(seed uint64) *Stream {
	st := fromSeed(seed)
	return &st
}

func fromSeed(seed uint64) Stream {
	var st Stream
	x := seed
	for i := range st.s {
		st.s[i] = splitMix64(&x)
	}
	// xoshiro256++ requires a nonzero state; SplitMix64 of any seed cannot
	// produce all-zero output words, but guard anyway.
	if st.s[0]|st.s[1]|st.s[2]|st.s[3] == 0 {
		st.s[0] = 0x9e3779b97f4a7c15
	}
	return st
}

// NewForNode derives the stream for node id under the given global seed.
// Distinct (seed, id) pairs yield statistically independent streams.
func NewForNode(seed uint64, id int) *Stream {
	s := ForNode(seed, id)
	return &s
}

// ForNode is NewForNode returning the stream by value, so callers that keep
// one stream per node (struct-of-arrays protocol state) can store them in a
// flat slice instead of allocating each stream on the heap. The derived
// state is identical to NewForNode's.
func ForNode(seed uint64, id int) Stream {
	x := seed
	mix := splitMix64(&x)
	y := mix ^ (uint64(id)+1)*0xd1342543de82ef95
	return fromSeed(splitMix64(&y) ^ uint64(id))
}

// Fork derives a new independent stream from s, labeled by tag. Forking the
// same stream state with different tags gives independent streams; s itself
// is not advanced.
func (s *Stream) Fork(tag uint64) *Stream {
	x := s.s[0] ^ bits.RotateLeft64(s.s[2], 17) ^ (tag+1)*0x2545f4914f6cdd1d
	return New(splitMix64(&x))
}

// Uint64 returns the next value of the stream. It works on local copies
// of the state words, which keeps it cheap enough for the compiler to
// inline, and Bernoulli with it.
func (s *Stream) Uint64() uint64 {
	s0, s1, s2, s3 := s.s[0], s.s[1], s.s[2], s.s[3]
	result := bits.RotateLeft64(s0+s3, 23) + s0
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s.s = [4]uint64{s0, s1, s2, bits.RotateLeft64(s3, 45)}
	return result
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	bound := uint64(n)
	x := s.Uint64()
	hi, lo := bits.Mul64(x, bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			x = s.Uint64()
			hi, lo = bits.Mul64(x, bound)
		}
	}
	return int(hi)
}

// Bernoulli returns true with probability p. Values p <= 0 always return
// false and p >= 1 always return true.
func (s *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// FirstSuccess returns the index of the first success in rounds trials of a
// Bernoulli(p) experiment, or -1 if all trials fail. Indices are 0-based.
//
// It is equivalent to running s.Bernoulli(p) rounds times and reporting the
// first true: it returns the same index and consumes the same variates, so
// interleaving with other draws is stable. That is one variate per trial up
// to the success for p in (0, 1), none for p <= 0 or p >= 1 (or rounds <=
// 0), and rounds variates, all failing, for a NaN p.
//
// Each trial tests the variate x against an integer threshold computed
// once: Bernoulli's Float64() < p is (x>>11)/2⁵³ < p, and scaling both
// sides by 2⁵³ is exact, so for the integer x>>11 it is x>>11 < ⌈p·2⁵³⌉.
// The trials run Uint64's step on the state words held in locals, which
// are loaded once and stored once.
func (s *Stream) FirstSuccess(p float64, rounds int) int {
	if p <= 0 || rounds <= 0 {
		return -1
	}
	if p >= 1 {
		return 0
	}
	var t uint64 // 0 for a NaN p, which no trial passes
	if p > 0 {
		t = uint64(math.Ceil(p * (1 << 53)))
	}
	s0, s1, s2, s3 := s.s[0], s.s[1], s.s[2], s.s[3]
	first := -1
	for i := 0; i < rounds; i++ {
		x := bits.RotateLeft64(s0+s3, 23) + s0
		u := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= u
		s3 = bits.RotateLeft64(s3, 45)
		if x>>11 < t {
			first = i
			break
		}
	}
	s.s = [4]uint64{s0, s1, s2, s3}
	return first
}

// Perm returns a uniform permutation of [0, n).
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
