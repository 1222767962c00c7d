package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

// Vec is a fixed-length bit vector. The zero value is an empty vector.
type Vec struct {
	n     int
	words []uint64
}

// New returns a zeroed bit vector of length n. It panics if n < 0.
func New(n int) Vec {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return Vec{n: n, words: make([]uint64, (n+63)/64)}
}

// Len returns the number of bits in the vector.
func (v Vec) Len() int { return v.n }

// Set sets bit i to b.
func (v Vec) Set(i int, b bool) {
	v.check(i)
	if b {
		v.words[i>>6] |= 1 << (uint(i) & 63)
	} else {
		v.words[i>>6] &^= 1 << (uint(i) & 63)
	}
}

// Get reports bit i.
func (v Vec) Get(i int) bool {
	v.check(i)
	return v.words[i>>6]&(1<<(uint(i)&63)) != 0
}

func (v Vec) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// OnesCount returns the number of set bits.
func (v Vec) OnesCount() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// And sets v = v AND u. The vectors must have equal length.
func (v Vec) And(u Vec) {
	if v.n != u.n {
		panic("bitvec: length mismatch in And")
	}
	for i := range v.words {
		v.words[i] &= u.words[i]
	}
}

// Or sets v = v OR u. The vectors must have equal length.
func (v Vec) Or(u Vec) {
	if v.n != u.n {
		panic("bitvec: length mismatch in Or")
	}
	for i := range v.words {
		v.words[i] |= u.words[i]
	}
}

// FirstSet returns the index of the lowest set bit, or -1 if none.
func (v Vec) FirstSet() int {
	for i, w := range v.words {
		if w != 0 {
			idx := i*64 + bits.TrailingZeros64(w)
			if idx < v.n {
				return idx
			}
			return -1
		}
	}
	return -1
}

// Fill sets every bit to b.
func (v Vec) Fill(b bool) {
	var w uint64
	if b {
		w = ^uint64(0)
	}
	for i := range v.words {
		v.words[i] = w
	}
	v.trim()
}

// trim clears bits beyond Len in the last word so OnesCount stays exact.
func (v Vec) trim() {
	if v.n%64 != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (1 << (uint(v.n) % 64)) - 1
	}
}

// Clone returns an independent copy of v.
func (v Vec) Clone() Vec {
	w := Vec{n: v.n, words: make([]uint64, len(v.words))}
	copy(w.words, v.words)
	return w
}

// Equal reports whether v and u have identical length and contents.
func (v Vec) Equal(u Vec) bool {
	if v.n != u.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != u.words[i] {
			return false
		}
	}
	return true
}

// Words exposes the packed words (little-endian bit order) for transport.
// The returned slice aliases the vector's storage.
func (v Vec) Words() []uint64 { return v.words }

// FromWords reconstructs a vector of length n from packed words.
func FromWords(n int, words []uint64) Vec {
	v := New(n)
	copy(v.words, words)
	v.trim()
	return v
}

// String renders the vector as a 0/1 string, lowest index first.
func (v Vec) String() string {
	var sb strings.Builder
	sb.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// BitsForRange returns the number of bits needed to express a value in
// [0, n), i.e. ceil(log2(n)) with a minimum of 1. It panics if n <= 0.
func BitsForRange(n int) int {
	if n <= 0 {
		panic("bitvec: BitsForRange of non-positive range")
	}
	if n == 1 {
		return 1
	}
	return bits.Len64(uint64(n - 1))
}
