package bitvec

import "math/bits"

// Word-level kernels over CSR adjacency rows. A row is a sorted list of
// int32 ids; `words` is a plain bitset indexed id>>6 (the dynamic
// engine's membership words). The kernels group consecutive ids sharing
// a word into one mask on the fly, so a probe over a clustered
// neighborhood does one AND per 64-key word instead of one load per
// neighbor.

// FirstAndRow returns the smallest row id whose bit is set in words, or
// -1 when the row and the bitset are disjoint.
func FirstAndRow(words []uint64, row []int32) int32 {
	for i := 0; i < len(row); {
		w := row[i] >> 6
		var m uint64
		for ; i < len(row) && row[i]>>6 == w; i++ {
			m |= 1 << (uint32(row[i]) & 63)
		}
		if int(w) < len(words) {
			if x := m & words[w]; x != 0 {
				return w<<6 + int32(bits.TrailingZeros64(x))
			}
		}
	}
	return -1
}

// CountAndRow returns how many row ids have their bit set in words.
func CountAndRow(words []uint64, row []int32) int {
	n := 0
	for i := 0; i < len(row); {
		w := row[i] >> 6
		var m uint64
		for ; i < len(row) && row[i]>>6 == w; i++ {
			m |= 1 << (uint32(row[i]) & 63)
		}
		if int(w) < len(words) {
			n += bits.OnesCount64(m & words[w])
		}
	}
	return n
}

// IntersectsRow reports whether any row id has its bit set in words,
// short-circuiting on the first overlapping word.
func IntersectsRow(words []uint64, row []int32) bool {
	for i := 0; i < len(row); {
		w := row[i] >> 6
		var m uint64
		for ; i < len(row) && row[i]>>6 == w; i++ {
			m |= 1 << (uint32(row[i]) & 63)
		}
		if int(w) < len(words) && m&words[w] != 0 {
			return true
		}
	}
	return false
}
