package bitvec

// The test names keep the type's former name, Stamped, and its epoch
// vocabulary: an epoch is the span between two Resets.

import (
	"math/rand"
	"slices"
	"testing"
)

func TestStampedZeroValue(t *testing.T) {
	var s Sparse
	if s.Any() || s.Count() != 0 {
		t.Fatal("zero value not empty")
	}
	if s.Has(0) || s.Has(1000) {
		t.Fatal("zero value Has reported a member")
	}
	s.Clear(5) // out of range: must not panic
	if got := s.AppendAscending(nil); len(got) != 0 {
		t.Fatalf("zero value enumerates %v", got)
	}
}

func TestStampedSetHasClear(t *testing.T) {
	var s Sparse
	s.Grow(200)
	keys := []int32{0, 1, 63, 64, 65, 127, 128, 199}
	for _, k := range keys {
		if !s.Set(k) {
			t.Fatalf("Set(%d) reported already present", k)
		}
	}
	for _, k := range keys {
		if s.Set(k) {
			t.Fatalf("second Set(%d) reported newly added", k)
		}
	}
	if got := s.Count(); got != len(keys) {
		t.Fatalf("Count = %d, want %d", got, len(keys))
	}
	for i := int32(0); i < 200; i++ {
		want := slices.Contains(keys, i)
		if s.Has(i) != want {
			t.Fatalf("Has(%d) = %v, want %v", i, s.Has(i), want)
		}
	}
	s.Clear(64)
	if s.Has(64) {
		t.Fatal("Clear(64) did not remove the key")
	}
	if got := s.Count(); got != len(keys)-1 {
		t.Fatalf("Count after Clear = %d, want %d", got, len(keys)-1)
	}
}

func TestStampedResetIsEmpty(t *testing.T) {
	var s Sparse
	s.Grow(500)
	for i := int32(0); i < 500; i += 7 {
		s.Set(i)
	}
	s.Reset()
	if s.Any() || s.Count() != 0 {
		t.Fatal("Reset did not empty the set")
	}
	for i := int32(0); i < 500; i++ {
		if s.Has(i) {
			t.Fatalf("Has(%d) after Reset", i)
		}
	}
	// The next epoch must behave like a fresh set on the same storage,
	// with nothing left listed from the last one.
	if len(s.TouchedWords()) != 0 {
		t.Fatalf("TouchedWords after Reset = %v", s.TouchedWords())
	}
	if !s.Set(42) || !s.Has(42) || s.Has(49) {
		t.Fatal("set corrupted after Reset")
	}
	if got := s.AppendAscending(nil); !slices.Equal(got, []int32{42}) {
		t.Fatalf("AppendAscending after Reset = %v", got)
	}
}

func TestStampedGrowPreservesMembers(t *testing.T) {
	var s Sparse
	s.Grow(10)
	s.Set(3)
	s.Grow(10000)
	if !s.Has(3) {
		t.Fatal("Grow lost a member")
	}
	s.Set(9999)
	if got := s.AppendAscending(nil); !slices.Equal(got, []int32{3, 9999}) {
		t.Fatalf("AppendAscending = %v", got)
	}
}

func TestStampedAppendAscendingSorted(t *testing.T) {
	var s Sparse
	rng := rand.New(rand.NewSource(7))
	ref := map[int32]bool{}
	s.Grow(4096)
	for i := 0; i < 1000; i++ {
		k := int32(rng.Intn(4096))
		s.Set(k)
		ref[k] = true
	}
	// Out-of-order insertion plus some clears.
	for k := range ref {
		if k%5 == 0 {
			s.Clear(k)
			delete(ref, k)
		}
	}
	want := make([]int32, 0, len(ref))
	for k := range ref {
		want = append(want, k)
	}
	slices.Sort(want)
	got := s.AppendAscending(nil)
	if !slices.Equal(got, want) {
		t.Fatalf("AppendAscending mismatch: got %d keys, want %d", len(got), len(want))
	}
	if s.Count() != len(want) {
		t.Fatalf("Count = %d, want %d", s.Count(), len(want))
	}
	// Appending to a non-empty destination extends it.
	pre := []int32{-1}
	ext := s.AppendAscending(pre)
	if ext[0] != -1 || !slices.Equal(ext[1:], want) {
		t.Fatal("AppendAscending does not append to dst")
	}
}

func TestStampedManyEpochs(t *testing.T) {
	var s Sparse
	s.Grow(128)
	for epoch := 0; epoch < 100; epoch++ {
		k := int32(epoch % 128)
		s.Set(k)
		if got := s.Count(); got != 1 {
			t.Fatalf("epoch %d: Count = %d, want 1", epoch, got)
		}
		if !slices.Equal(s.AppendAscending(nil), []int32{k}) {
			t.Fatalf("epoch %d: wrong members", epoch)
		}
		if got := s.TouchedWords(); len(got) != 1 || got[0] != k>>6 {
			t.Fatalf("epoch %d: TouchedWords = %v, want [%d]", epoch, got, k>>6)
		}
		s.Reset()
	}
}
