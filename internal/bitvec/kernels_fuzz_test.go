package bitvec

import (
	"math/rand"
	"slices"
	"testing"
)

// Naive references for the row kernels: one hasBit lookup per row id,
// with no set to write. The fuzz targets hold FirstAndRow's result to
// this loop, and the set OrRow leaves to a map of the keys added.

func hasBit(words []uint64, id int32) bool {
	w := int(id) >> 6
	return w < len(words) && words[w]&(1<<(uint32(id)&63)) != 0
}

func naiveFirstAnd(words []uint64, row []int32) int32 {
	for _, id := range row {
		if hasBit(words, id) {
			return id
		}
	}
	return -1
}

// decodeRow turns fuzz bytes into a sorted, deduped row of small int32
// ids. Consecutive bytes are deltas, so ids cluster within and straddle
// word boundaries depending on the input.
func decodeRow(data []byte) []int32 {
	row := make([]int32, 0, len(data))
	cur := int32(0)
	for _, b := range data {
		cur += int32(b%67) + 1 // deltas 1..67 cross 64-bit word edges often
		row = append(row, cur-1)
	}
	return row
}

// decodeWords builds a membership bitset whose length is deliberately
// decoupled from the row's key range, so rows routinely index past the
// last (partial) word and kernels must treat missing words as zero.
func decodeWords(data []byte, nWords int) []uint64 {
	words := make([]uint64, nWords)
	for i, b := range data {
		w := int(b) % (nWords + 3) // some indices land out of range: skipped
		if w < nWords {
			words[w] |= 1 << ((uint(b) * 7) & 63)
			words[w] |= 1 << (uint(i) & 63)
		}
	}
	return words
}

// checkTouched fails unless s's touched list names every word holding a
// key of want and no word twice.
func checkTouched(t *testing.T, s *Sparse, want []int32) {
	t.Helper()
	listed := map[int32]bool{}
	for _, w := range s.TouchedWords() {
		if listed[w] {
			t.Fatalf("word %d listed twice in %v", w, s.TouchedWords())
		}
		listed[w] = true
	}
	for _, k := range want {
		if !listed[k>>6] {
			t.Fatalf("key %d set but word %d not listed in %v", k, k>>6, s.TouchedWords())
		}
	}
}

// hubRow returns the fuzz bytes of a hub-shaped row: the id first, then
// n more keys at deltas of 1–3, so most words hold several keys and runs
// of keys straddle every word boundary they reach.
func hubRow(first byte, n int) []byte {
	data := []byte{first}
	for i := 0; i < n; i++ {
		data = append(data, byte((i*i+i/4)%3))
	}
	return data
}

// FuzzRowKernels holds FirstAndRow and OrRow to the naive walks: OrRow
// runs into an empty set and into one that already holds keys in the
// row's words, including a word that was written and cleared back to
// zero, and must leave the union of the two with a touched list naming
// each non-zero word once.
func FuzzRowKernels(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{0, 1}, uint8(2))
	f.Add([]byte{63, 1, 1, 64}, []byte{0, 0, 1, 2}, uint8(3))
	f.Add([]byte{}, []byte{5}, uint8(1))
	f.Add([]byte{200, 200, 200}, []byte{255}, uint8(1)) // row far past words
	members := make([]byte, 64)
	for i := range members {
		members[i] = byte(i * 5)
	}
	f.Add(hubRow(60, 160), members, uint8(7))  // ids 60–365, about 32 per word
	f.Add(hubRow(0, 130), members, uint8(1))   // ids 0–251, half past the filter
	f.Add(hubRow(62, 120), []byte{}, uint8(4)) // ids 62–292, no member
	f.Fuzz(func(t *testing.T, rowData, wordData []byte, nw uint8) {
		if len(rowData) > 256 || len(wordData) > 256 {
			t.Skip()
		}
		row := decodeRow(rowData)
		words := decodeWords(wordData, int(nw%8)+1)

		if got, want := FirstAndRow(words, row), naiveFirstAnd(words, row); got != want {
			t.Fatalf("FirstAndRow = %d, want %d (row %v)", got, want, row)
		}
		if len(row) == 0 {
			return
		}

		for _, prefill := range []bool{false, true} {
			var s Sparse
			s.Grow(int(row[len(row)-1]|63) + 1) // whole words: prefill keys share the row's words
			ref := map[int32]bool{}
			if prefill {
				for i, id := range row {
					switch i % 3 {
					case 0:
						s.Set(id ^ 32)
						ref[id^32] = true
					case 1:
						if s.Set(id ^ 1) {
							s.Clear(id ^ 1)
						}
					}
				}
			}
			s.OrRow(row)
			for _, id := range row {
				ref[id] = true
			}
			want := make([]int32, 0, len(ref))
			for k := range ref {
				want = append(want, k)
			}
			slices.Sort(want)
			if got := s.AppendAscending(nil); !slices.Equal(got, want) {
				t.Fatalf("prefill %v: set holds %v, want %v", prefill, got, want)
			}
			checkTouched(t, &s, want)
		}
	})
}

// FuzzStampedOps drives a Sparse through a random op sequence —
// including Resets mid-stream — mirrored against a map reference, then
// checks every view the repair sweeps rely on: AppendAscending, AndInto,
// AndNotInto, Word, OrRow, Count, and a touched list that names every
// non-zero word exactly once. Ops are byte pairs: the first picks the
// kind (and the key's ninth bit), the second the key, so any kind can
// hit any key.
func FuzzStampedOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4}, int64(1))
	f.Add([]byte{63, 64, 65, 127, 128, 255, 254}, int64(2))
	f.Add([]byte{10, 10, 10}, int64(3))
	// Clear-then-set on one word: word 1 goes non-zero, back to zero,
	// and non-zero again, so the summary bit alone keeps it from being
	// listed twice; then the same across a Reset.
	f.Add([]byte{0, 70, 2, 70, 0, 71, 4, 0, 0, 72, 2, 72, 1, 72}, int64(4))
	f.Fuzz(func(t *testing.T, ops []byte, seed int64) {
		if len(ops) > 1024 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		const n = 300 // not a multiple of 64: the last word is partial
		var s Sparse
		s.Grow(n)
		ref := map[int32]bool{}
		member := make([]uint64, (n+63)>>6)
		for i := 0; i < len(member); i++ {
			member[i] = rng.Uint64()
		}

		for i := 0; i+1 < len(ops); i += 2 {
			op := ops[i]
			k := (int32(op&0x80)<<1 | int32(ops[i+1])) % n
			switch op % 5 {
			case 0, 1:
				s.Set(k)
				ref[k] = true
			case 2:
				s.Clear(k)
				delete(ref, k)
			case 3:
				// OrRow over a short clustered row around k.
				row := []int32{k}
				for d := int32(1); d <= 3 && k+d < n; d++ {
					row = append(row, k+d)
				}
				s.OrRow(row)
				for _, id := range row {
					ref[id] = true
				}
			case 4:
				s.Reset()
				ref = map[int32]bool{}
			}
		}

		want := make([]int32, 0, len(ref))
		for k := range ref {
			want = append(want, k)
		}
		slices.Sort(want)

		if got := s.AppendAscending(nil); !slices.Equal(got, want) {
			t.Fatalf("AppendAscending = %v, want %v", got, want)
		}
		if got := s.Count(); got != len(want) {
			t.Fatalf("Count = %d, want %d", got, len(want))
		}
		if s.Any() != (len(want) > 0) {
			t.Fatalf("Any = %v with %d keys", s.Any(), len(want))
		}
		checkTouched(t, &s, want)

		var andWant, andNotWant []int32
		for _, k := range want {
			if hasBit(member, k) {
				andWant = append(andWant, k)
			} else {
				andNotWant = append(andNotWant, k)
			}
		}
		if got := s.AndInto(member, nil); !slices.Equal(got, andWant) {
			t.Fatalf("AndInto = %v, want %v", got, andWant)
		}
		if got := s.AndNotInto(member, nil); !slices.Equal(got, andNotWant) {
			t.Fatalf("AndNotInto = %v, want %v", got, andNotWant)
		}

		// Word must agree with the reference for every word, including
		// ones never touched since the last Reset.
		for w := int32(0); w < int32(len(member)); w++ {
			got := s.Word(w)
			var wantWord uint64
			for b := int32(0); b < 64; b++ {
				if ref[w<<6+b] {
					wantWord |= 1 << uint(b)
				}
			}
			if got != wantWord {
				t.Fatalf("Word(%d) = %#x, want %#x", w, got, wantWord)
			}
		}
		if s.Word(int32(len(member))+5) != 0 {
			t.Fatal("out-of-range Word not zero")
		}
	})
}

// TestKernelsBoundary pins the word-boundary cases the fuzz corpus may
// not hit on a short run: ids at 63/64/127 and a membership array whose
// final word is partial relative to the row's range.
func TestKernelsBoundary(t *testing.T) {
	row := []int32{0, 63, 64, 65, 127, 128, 191}
	words := []uint64{1 << 63, 1 << 1, 1} // members: 63, 65, 128
	for _, id := range []int32{63, 65, 128} {
		if !hasBit(words, id) {
			t.Fatalf("test setup: %d not a member", id)
		}
	}
	if got := FirstAndRow(words, row); got != 63 {
		t.Fatalf("FirstAndRow = %d, want 63", got)
	}
	// Row id 191 indexes word 2 — present; 192 would index word 3 — absent.
	if FirstAndRow(words, []int32{192, 200}) != -1 {
		t.Fatal("ids past the word array must read as non-members")
	}
}

// TestStampedEpochBoundaryViews pins that the word views respect Reset:
// a word written before it reads as zero after it, and
// AndInto/AndNotInto skip it entirely.
func TestStampedEpochBoundaryViews(t *testing.T) {
	var s Sparse
	s.Grow(256)
	s.Set(5)
	s.OrRow([]int32{192, 193, 200})
	s.Reset()
	if s.Word(0) != 0 || s.Word(3) != 0 {
		t.Fatal("stale word visible after Reset")
	}
	all := []uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
	if got := s.AndInto(all, nil); len(got) != 0 {
		t.Fatalf("AndInto after Reset = %v", got)
	}
	if got := s.AndNotInto(nil, nil); len(got) != 0 {
		t.Fatalf("AndNotInto after Reset = %v", got)
	}
	s.Set(70)
	if got := s.AndNotInto(all[:1], nil); !slices.Equal(got, []int32{70}) {
		t.Fatalf("AndNotInto past words end = %v, want [70]", got)
	}
	if got := s.AndInto(all[:1], nil); len(got) != 0 {
		t.Fatalf("AndInto past words end = %v, want empty", got)
	}
	if got := s.TouchedWords(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("TouchedWords = %v, want [1]", got)
	}
}
