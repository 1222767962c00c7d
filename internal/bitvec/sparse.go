package bitvec

import "math/bits"

// Sparse is a reusable set of int32 keys over a plain word array that
// remembers which words it has written: a touched list for unordered
// counts and folds, and a summary bitmap (bit w&63 of sum[w>>6] marks
// word w) for ascending sweeps. A set that marks k keys costs O(k) to
// walk and to Reset, no matter how large the key space has grown.
//
// A write that finds its word zero is the only one that consults the
// summary: the summary bit tells a first touch (list the word) from a
// word that was touched and then cleared back to zero (already listed),
// so the touched list never holds a word twice. The row sweeps therefore
// stay plain key loops, OR-ing each key into its word with no call.
//
// Ascending enumeration never sorts: the sweeps walk the summary
// low-to-high, O(W/64 + t) for W words and t touched.
//
// The zero value is an empty set. Methods are not safe for concurrent
// use.
type Sparse struct {
	words   []uint64
	sum     []uint64 // summary bitmap: word w touched ⇒ bit w&63 of sum[w>>6]
	touched []int32  // word indices written since Reset, unordered, no duplicates
}

// Reset empties the set, zeroing only the words written since the last
// Reset and their summary words.
func (s *Sparse) Reset() {
	for _, w := range s.touched {
		s.words[w] = 0
		s.sum[w>>6] = 0
	}
	s.touched = s.touched[:0]
}

// touch lists word w unless it was written since Reset; callers reach it
// only when the word reads zero.
func (s *Sparse) touch(w int32) {
	bit := uint64(1) << (uint32(w) & 63)
	if s.sum[w>>6]&bit == 0 {
		s.sum[w>>6] |= bit
		s.touched = append(s.touched, w)
	}
}

// Grow extends the key space to cover [0, n). The missing word run is
// appended in one allocation. Set and the row ORs require a prior Grow
// covering their keys; Has, Clear and Word tolerate out-of-range keys.
func (s *Sparse) Grow(n int) {
	w := (n + 63) >> 6
	if w > len(s.words) {
		s.words = append(s.words, make([]uint64, w-len(s.words))...)
	}
	sw := (w + 63) >> 6
	if sw > len(s.sum) {
		s.sum = append(s.sum, make([]uint64, sw-len(s.sum))...)
	}
}

// Set adds i to the set, reporting whether it was absent.
func (s *Sparse) Set(i int32) bool {
	w := i >> 6
	bit := uint64(1) << (uint32(i) & 63)
	x := s.words[w]
	if x&bit != 0 {
		return false
	}
	if x == 0 {
		s.touch(w)
	}
	s.words[w] = x | bit
	return true
}

// Has reports whether i is in the set.
func (s *Sparse) Has(i int32) bool {
	w := int(i) >> 6
	return w < len(s.words) && s.words[w]&(1<<(uint32(i)&63)) != 0
}

// Clear removes i from the set (a no-op when absent). The word stays
// listed until Reset.
func (s *Sparse) Clear(i int32) {
	if w := int(i) >> 6; w < len(s.words) {
		s.words[w] &^= 1 << (uint32(i) & 63)
	}
}

// Word returns word w (64 keys starting at key w<<6); out-of-range words
// read as 0.
func (s *Sparse) Word(w int32) uint64 {
	if int(w) >= len(s.words) {
		return 0
	}
	return s.words[w]
}

// OrRow adds every id of a row.
func (s *Sparse) OrRow(row []int32) {
	for _, id := range row {
		w := id >> 6
		x := s.words[w]
		if x == 0 {
			s.touch(w)
		}
		s.words[w] = x | 1<<(uint32(id)&63)
	}
}

// TouchedWords returns the word indices written since Reset, unordered
// and without duplicates; a touched word may have all its bits cleared
// again. The slice aliases the set's bookkeeping and is valid until the
// next mutation.
func (s *Sparse) TouchedWords() []int32 { return s.touched }

// Any reports whether the set is non-empty.
func (s *Sparse) Any() bool {
	for _, w := range s.touched {
		if s.words[w] != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of keys in the set.
func (s *Sparse) Count() int {
	n := 0
	for _, w := range s.touched {
		n += bits.OnesCount64(s.words[w])
	}
	return n
}

// AppendAscending appends the set's keys to dst in ascending order and
// returns the extended slice: the summary bitmap yields the touched words
// low-to-high, then each word's bits are extracted low-to-high. Cost is
// O(W/64 + k) for a W-word key space and k keys — no comparison sort.
func (s *Sparse) AppendAscending(dst []int32) []int32 {
	for sw, y := range s.sum {
		for ; y != 0; y &= y - 1 {
			w := int32(sw)<<6 + int32(bits.TrailingZeros64(y))
			dst = appendBits(dst, w<<6, s.words[w])
		}
	}
	return dst
}

// AndInto appends, ascending, the set's keys whose bit is also set in
// the plain word array (e.g. a membership bitset indexed key>>6), and
// returns the extended slice.
func (s *Sparse) AndInto(words []uint64, dst []int32) []int32 {
	for sw, y := range s.sum {
		for ; y != 0; y &= y - 1 {
			w := int32(sw)<<6 + int32(bits.TrailingZeros64(y))
			if int(w) < len(words) {
				dst = appendBits(dst, w<<6, s.words[w]&words[w])
			}
		}
	}
	return dst
}

// AndNotInto appends, ascending, the set's keys whose bit is clear in
// the plain word array, and returns the extended slice.
func (s *Sparse) AndNotInto(words []uint64, dst []int32) []int32 {
	for sw, y := range s.sum {
		for ; y != 0; y &= y - 1 {
			w := int32(sw)<<6 + int32(bits.TrailingZeros64(y))
			x := s.words[w]
			if int(w) < len(words) {
				x &^= words[w]
			}
			dst = appendBits(dst, w<<6, x)
		}
	}
	return dst
}

// appendBits appends base+b for every set bit b of x, ascending.
func appendBits(dst []int32, base int32, x uint64) []int32 {
	for ; x != 0; x &= x - 1 {
		dst = append(dst, base+int32(bits.TrailingZeros64(x)))
	}
	return dst
}
