package bitvec

import (
	"math/rand"
	"slices"
	"testing"
)

// Naive references for the word kernels: one membership lookup per row
// id, no word grouping. The fuzz targets cross-check the packed kernels
// against these bit-at-a-time loops.

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

func naiveCountAnd(words []uint64, row []int32) int {
	n := 0
	for _, id := range row {
		if hasBit(words, id) {
			n++
		}
	}
	return n
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

func FuzzRowKernels(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{0, 1}, uint8(2))
	f.Add([]byte{63, 1, 1, 64}, []byte{0, 0, 1, 2}, uint8(3))
	f.Add([]byte{}, []byte{5}, uint8(1))
	f.Add([]byte{200, 200, 200}, []byte{255}, uint8(1)) // row far past words
	f.Fuzz(func(t *testing.T, rowData, wordData []byte, nw uint8) {
		if len(rowData) > 256 || len(wordData) > 256 {
			t.Skip()
		}
		row := decodeRow(rowData)
		words := decodeWords(wordData, int(nw%8)+1)

		if got, want := FirstAndRow(words, row), naiveFirstAnd(words, row); got != want {
			t.Fatalf("FirstAndRow = %d, want %d (row %v)", got, want, row)
		}
		if got, want := CountAndRow(words, row), naiveCountAnd(words, row); got != want {
			t.Fatalf("CountAndRow = %d, want %d (row %v)", got, want, row)
		}
		if got, want := IntersectsRow(words, row), naiveFirstAnd(words, row) >= 0; got != want {
			t.Fatalf("IntersectsRow = %v, want %v (row %v)", got, want, row)
		}

		// OrRowCount must count like CountAndRow and mark like OrRow.
		if len(row) > 0 {
			dedup := slices.Compact(slices.Clone(row))
			var s Stamped
			s.Grow(int(row[len(row)-1]) + 1)
			if got, want := s.OrRowCount(row, words), naiveCountAnd(words, row); got != want {
				t.Fatalf("OrRowCount = %d, want %d (row %v)", got, want, row)
			}
			if got := s.AppendAscending(nil); !slices.Equal(got, dedup) {
				t.Fatalf("OrRowCount marked %v, want %v", got, dedup)
			}
		}
	})
}

// FuzzStampedOps drives a Stamped through a random op sequence —
// including Reset epoch boundaries mid-stream — mirrored against a map
// reference, then checks every view the repair sweeps rely on:
// AppendAscending, AndInto, AndNotInto, Word, OrRow, Count.
func FuzzStampedOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4}, int64(1))
	f.Add([]byte{63, 64, 65, 127, 128, 255, 254}, int64(2))
	f.Add([]byte{10, 10, 10}, int64(3))
	f.Fuzz(func(t *testing.T, ops []byte, seed int64) {
		if len(ops) > 512 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		const n = 300 // not a multiple of 64: the last word is partial
		var s Stamped
		s.Grow(n)
		ref := map[int32]bool{}
		member := make([]uint64, (n+63)>>6)
		for i := 0; i < len(member); i++ {
			member[i] = rng.Uint64()
		}

		for _, op := range ops {
			k := int32(op) % n
			switch op % 5 {
			case 0, 1:
				s.Set(k)
				ref[k] = true
			case 2:
				s.Clear(k)
				delete(ref, k)
			case 3:
				// OrRow over a short clustered row around k; every other
				// turn takes the fused OrRowCount and cross-checks the
				// member-reply count against the naive filter walk.
				row := []int32{k}
				for d := int32(1); d <= 3 && k+d < n; d++ {
					row = append(row, k+d)
				}
				if op&1 == 0 {
					s.OrRow(row)
				} else if got, want := s.OrRowCount(row, member), naiveCountAnd(member, row); got != want {
					t.Fatalf("OrRowCount = %d, want %d (row %v)", got, want, row)
				}
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

		// Word must agree with Has for every word, including ones never
		// touched this epoch (stale stamps read as zero).
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
	if got := CountAndRow(words, row); got != 3 {
		t.Fatalf("CountAndRow = %d, want 3", got)
	}
	if !IntersectsRow(words, row) {
		t.Fatal("IntersectsRow = false")
	}
	// Row id 191 indexes word 2 — present; 192 would index word 3 — absent.
	if FirstAndRow(words, []int32{192, 200}) != -1 {
		t.Fatal("ids past the word array must read as non-members")
	}
	if CountAndRow(words, []int32{192}) != 0 || IntersectsRow(words, []int32{250}) {
		t.Fatal("ids past the word array must read as non-members")
	}
}

// TestStampedEpochBoundaryViews pins that the new word views respect the
// epoch stamps: a word written last epoch reads as zero this epoch, and
// AndInto/AndNotInto skip stale words entirely.
func TestStampedEpochBoundaryViews(t *testing.T) {
	var s Stamped
	s.Grow(256)
	s.Set(5)
	s.OrWord(3, 0xff)
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
