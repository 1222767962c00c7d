package bitvec

import "math/bits"

// Stamped is a reusable set of int32 keys with O(1) clearing: every
// 64-bit word carries an epoch stamp, Reset bumps the epoch, and a stale
// word is zeroed lazily on its first write in the new epoch. A touched
// list records which words the current epoch wrote, so enumeration and
// population count scan only those — a set that marks k keys costs O(k)
// to walk no matter how large the key space has grown.
//
// This is the first slice of the frontier/bitset engine (ROADMAP item 3):
// the dynamic repair path tracks its dirty/woken/region sets in Stamped
// vectors, replacing insertion-ordered id lists plus sort.Slice snapshots
// with word operations and an ascending walk over the touched words.
//
// Ascending enumeration never sorts: a two-level summary bitmap marks
// which words the current epoch touched (bit w&63 of sum[w>>6]), so the
// ordered sweeps walk the summary low-to-high instead of sorting the
// touched list — O(W/64 + t) for W words and t touched, with no
// comparison sort on the repair hot path.
//
// The zero value is an empty set. Methods are not safe for concurrent
// use.
type Stamped struct {
	words     []uint64
	stamps    []uint64
	sum       []uint64 // summary bitmap: word w touched ⇒ bit w&63 of sum[w>>6]
	sumStamps []uint64 // epoch stamps for sum, same lazy-clear scheme
	touched   []int32  // word indices written this epoch, unordered
	epoch     uint64
}

// A word is live when its stamp equals epoch+1, so the zero value's
// epoch 0 never matches the zero stamps of freshly grown words.
func (s *Stamped) cur() uint64 { return s.epoch + 1 }

// Reset empties the set in O(1) (plus truncating the touched list).
func (s *Stamped) Reset() {
	s.epoch++
	s.touched = s.touched[:0]
}

// touch records word w's first write of the epoch: the unordered touched
// list for counts and folds, the summary bitmap for ordered sweeps.
func (s *Stamped) touch(w int32) {
	s.touched = append(s.touched, w)
	sw := w >> 6
	if s.sumStamps[sw] != s.cur() {
		s.sumStamps[sw] = s.cur()
		s.sum[sw] = 0
	}
	s.sum[sw] |= 1 << (uint32(w) & 63)
}

// Grow extends the key space to cover [0, n). The missing word run is
// appended in one allocation. Set requires a prior Grow covering its key;
// Has and Clear tolerate out-of-range keys.
func (s *Stamped) Grow(n int) {
	w := (n + 63) >> 6
	if w > len(s.words) {
		s.words = append(s.words, make([]uint64, w-len(s.words))...)
		s.stamps = append(s.stamps, make([]uint64, w-len(s.stamps))...)
	}
	sw := (w + 63) >> 6
	if sw > len(s.sum) {
		s.sum = append(s.sum, make([]uint64, sw-len(s.sum))...)
		s.sumStamps = append(s.sumStamps, make([]uint64, sw-len(s.sumStamps))...)
	}
}

// Set adds i to the set, reporting whether it was absent. The key must be
// covered by a prior Grow.
func (s *Stamped) Set(i int32) bool {
	w := int(i) >> 6
	bit := uint64(1) << (uint32(i) & 63)
	if s.stamps[w] != s.cur() {
		s.stamps[w] = s.cur()
		s.words[w] = 0
		s.touch(int32(w))
	}
	if s.words[w]&bit != 0 {
		return false
	}
	s.words[w] |= bit
	return true
}

// Has reports whether i is in the set.
func (s *Stamped) Has(i int32) bool {
	w := int(i) >> 6
	if w >= len(s.words) || s.stamps[w] != s.cur() {
		return false
	}
	return s.words[w]&(1<<(uint32(i)&63)) != 0
}

// Clear removes i from the set (a no-op when absent).
func (s *Stamped) Clear(i int32) {
	w := int(i) >> 6
	if w >= len(s.words) || s.stamps[w] != s.cur() {
		return
	}
	s.words[w] &^= 1 << (uint32(i) & 63)
}

// Word returns the current-epoch value of word w (64 keys starting at
// key w<<6); stale and out-of-range words read as 0.
func (s *Stamped) Word(w int32) uint64 {
	if int(w) >= len(s.words) || s.stamps[w] != s.cur() {
		return 0
	}
	return s.words[w]
}

// OrWord ORs mask into word w. The word must be covered by a prior Grow.
// The already-stamped fast path is branch-only so the call inlines into
// the row sweeps; the epoch's first write of a word takes the cold call.
func (s *Stamped) OrWord(w int32, mask uint64) {
	if s.stamps[w] == s.cur() {
		s.words[w] |= mask
		return
	}
	s.firstOr(w, mask)
}

// firstOr stamps word w for the current epoch and seeds it with mask.
func (s *Stamped) firstOr(w int32, mask uint64) {
	s.stamps[w] = s.cur()
	s.words[w] = mask
	s.touch(w)
}

// OrRow adds every id of a sorted row in word-grouped ORs: consecutive
// ids sharing a word are folded into one mask before a single OrWord.
// All ids must be covered by a prior Grow.
func (s *Stamped) OrRow(row []int32) {
	for i := 0; i < len(row); {
		w := row[i] >> 6
		var m uint64
		for ; i < len(row) && row[i]>>6 == w; i++ {
			m |= 1 << (uint32(row[i]) & 63)
		}
		s.OrWord(w, m)
	}
}

// OrRowCount is OrRow fused with CountAndRow: it adds the row's keys to
// the set and returns how many of them have their bit set in filter, in
// a single word-grouped pass (the repair coverage probe: wake the whole
// neighborhood, count member replies). Filter words past len(filter)
// read as zero; the set must cover the row via a prior Grow.
func (s *Stamped) OrRowCount(row []int32, filter []uint64) int {
	n := 0
	for i := 0; i < len(row); {
		w := row[i] >> 6
		var m uint64
		for ; i < len(row) && row[i]>>6 == w; i++ {
			m |= 1 << (uint32(row[i]) & 63)
		}
		s.OrWord(w, m)
		if int(w) < len(filter) {
			n += bits.OnesCount64(m & filter[w])
		}
	}
	return n
}

// TouchedWords returns the word indices written this epoch, unordered;
// a touched word may have all its bits cleared again. The slice aliases
// the set's bookkeeping and is valid until the next mutation.
func (s *Stamped) TouchedWords() []int32 { return s.touched }

// Any reports whether the set is non-empty.
func (s *Stamped) Any() bool {
	for _, w := range s.touched {
		if s.words[w] != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of keys in the set.
func (s *Stamped) Count() int {
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
func (s *Stamped) AppendAscending(dst []int32) []int32 {
	cur := s.cur()
	for sw, y := range s.sum {
		if s.sumStamps[sw] != cur {
			continue
		}
		for ; y != 0; y &= y - 1 {
			w := int32(sw)<<6 + int32(bits.TrailingZeros64(y))
			x := s.words[w]
			base := w << 6
			for x != 0 {
				dst = append(dst, base+int32(bits.TrailingZeros64(x)))
				x &= x - 1
			}
		}
	}
	return dst
}

// AndInto appends, ascending, the set's keys whose bit is also set in
// the plain word array (e.g. a membership bitset indexed key>>6), and
// returns the extended slice.
func (s *Stamped) AndInto(words []uint64, dst []int32) []int32 {
	cur := s.cur()
	for sw, y := range s.sum {
		if s.sumStamps[sw] != cur {
			continue
		}
		for ; y != 0; y &= y - 1 {
			w := int32(sw)<<6 + int32(bits.TrailingZeros64(y))
			x := s.words[w]
			if int(w) < len(words) {
				x &= words[w]
			} else {
				x = 0
			}
			base := w << 6
			for x != 0 {
				dst = append(dst, base+int32(bits.TrailingZeros64(x)))
				x &= x - 1
			}
		}
	}
	return dst
}

// AndNotInto appends, ascending, the set's keys whose bit is clear in
// the plain word array, and returns the extended slice.
func (s *Stamped) AndNotInto(words []uint64, dst []int32) []int32 {
	cur := s.cur()
	for sw, y := range s.sum {
		if s.sumStamps[sw] != cur {
			continue
		}
		for ; y != 0; y &= y - 1 {
			w := int32(sw)<<6 + int32(bits.TrailingZeros64(y))
			x := s.words[w]
			if int(w) < len(words) {
				x &^= words[w]
			}
			base := w << 6
			for x != 0 {
				dst = append(dst, base+int32(bits.TrailingZeros64(x)))
				x &= x - 1
			}
		}
	}
	return dst
}
