package schedule

import (
	"math/bits"
	"slices"
	"testing"
	"testing/quick"
)

// checkIntersection verifies the Lemma 2.5 property for all pairs i <= j,
// including the strengthened form: for i < j the common round l satisfies
// i <= l < j.
func checkIntersection(t *testing.T, T int) {
	t.Helper()
	sets := All(T)
	member := make([]map[int]bool, T)
	for k, s := range sets {
		member[k] = make(map[int]bool, len(s))
		for _, l := range s {
			member[k][l] = true
		}
	}
	for i := 0; i < T; i++ {
		for j := i; j < T; j++ {
			found := false
			for _, l := range sets[i] {
				if l >= i && l <= j && member[j][l] {
					if i < j && l == j {
						continue // strengthened form requires l < j
					}
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("T=%d: no common round for i=%d j=%d (S_i=%v S_j=%v)", T, i, j, sets[i], sets[j])
			}
		}
	}
}

func TestIntersectionSmall(t *testing.T) {
	for _, T := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 31, 32, 33, 64, 100, 127, 128, 129} {
		checkIntersection(t, T)
	}
}

// TestSizeBound checks Lemma 2.5's size bound, |S_k| = O(log T), with
// the constant fixed at 1: |S_k| ≤ ⌈log₂ T⌉ + 1, the length of the
// longest binary-search path, up to T = 2²⁰. Measured: every size meets
// the bound.
func TestSizeBound(t *testing.T) {
	for _, T := range []int{1, 2, 3, 10, 100, 1000, 1 << 14, 1<<14 + 1, 1 << 20} {
		bound := bits.Len(uint(T-1)) + 1 // ⌈log₂ T⌉ + 1
		if got := MaxSize(T); got != bound {
			t.Fatalf("T=%d: MaxSize %d, want ⌈log₂ T⌉+1 = %d", T, got, bound)
		}
		for k := 0; k < T; k += 1 + T/257 {
			if got := len(Set(T, k)); got > bound {
				t.Fatalf("T=%d k=%d |S_k|=%d exceeds bound %d", T, k, got, bound)
			}
		}
	}
}

// TestSetDistinct: Set lists every member of S_k once. The search path
// turns left at k whenever k is the midpoint of a longer interval, and k
// is also the midpoint of the path's last interval, [k, k]; it must not
// be listed twice (for T=4, S_1 is {0, 1}).
func TestSetDistinct(t *testing.T) {
	for T := 1; T <= 300; T++ {
		for k := 0; k < T; k++ {
			s := Set(T, k)
			sorted := slices.Clone(s)
			slices.Sort(sorted)
			if len(slices.Compact(sorted)) != len(s) {
				t.Fatalf("T=%d k=%d: Set lists a round twice: %v", T, k, s)
			}
		}
	}
}

// TestAppendAscending: AppendAscending is Set sorted, each member once,
// appended after what dst already holds.
func TestAppendAscending(t *testing.T) {
	for T := 1; T <= 300; T++ {
		for k := 0; k < T; k++ {
			want := []int32{-7}
			for _, l := range Set(T, k) {
				want = append(want, int32(l))
			}
			slices.Sort(want[1:])
			want = slices.Compact(want)
			if got := AppendAscending([]int32{-7}, T, k); !slices.Equal(got, want) {
				t.Fatalf("T=%d k=%d: AppendAscending %v, want %v", T, k, got[1:], want[1:])
			}
		}
	}
}

// TestAppendAscendingNoAllocs: into a buffer with room for the longest
// schedule, AppendAscending allocates nothing.
func TestAppendAscendingNoAllocs(t *testing.T) {
	const T = 1 << 20
	var path [32]int32
	k := 0
	allocs := testing.AllocsPerRun(100, func() {
		if s := AppendAscending(path[:0], T, k); len(s) > MaxSize(T) {
			t.Fatalf("k=%d: |S_k|=%d over MaxSize %d", k, len(s), MaxSize(T))
		}
		k = (k + 9973) % T
	})
	if allocs != 0 {
		t.Fatalf("AppendAscending into a stack buffer: %.0f allocs per call, want 0", allocs)
	}
}

func TestSelfMembership(t *testing.T) {
	// k is always the final midpoint of its own path, so k ∈ S_k.
	for _, T := range []int{1, 5, 64, 1000} {
		for k := 0; k < T; k += 1 + T/101 {
			found := false
			for _, l := range Set(T, k) {
				if l == k {
					found = true
				}
			}
			if !found {
				t.Fatalf("T=%d: k=%d not in own set", T, k)
			}
		}
	}
}

func TestSetSorted(t *testing.T) {
	// Midpoints along the search path are not necessarily monotone, but
	// every element must be a valid round.
	for _, T := range []int{1, 2, 37, 512} {
		for k := 0; k < T; k++ {
			for _, l := range Set(T, k) {
				if l < 0 || l >= T {
					t.Fatalf("T=%d k=%d element %d out of range", T, k, l)
				}
			}
		}
	}
}

func TestContainsAgreesWithSet(t *testing.T) {
	f := func(tRaw uint16, kRaw uint16, lRaw uint16) bool {
		T := int(tRaw%500) + 1
		k := int(kRaw) % T
		l := int(lRaw) % T
		inSet := false
		for _, x := range Set(T, k) {
			if x == l {
				inSet = true
			}
		}
		return Contains(T, k, l) == inSet
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRandomPairs(t *testing.T) {
	f := func(tRaw uint16, iRaw, jRaw uint16) bool {
		T := int(tRaw%2000) + 1
		i := int(iRaw) % T
		j := int(jRaw) % T
		if i > j {
			i, j = j, i
		}
		si := Set(T, i)
		for _, l := range si {
			if l >= i && l <= j && Contains(T, j, l) {
				if i < j && l == j {
					continue
				}
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	for _, k := range []int{-1, 10} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Set(10, %d) did not panic", k)
				}
			}()
			Set(10, k)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("AppendAscending(nil, 10, %d) did not panic", k)
				}
			}()
			AppendAscending(nil, 10, k)
		}()
	}
}

func TestMaxSizeValues(t *testing.T) {
	cases := []struct{ t, want int }{
		{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 3}, {8, 4}, {9, 5}, {1024, 11},
	}
	for _, c := range cases {
		if got := MaxSize(c.t); got != c.want {
			t.Errorf("MaxSize(%d) = %d, want %d", c.t, got, c.want)
		}
	}
}

func BenchmarkSet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Set(1<<20, i%(1<<20))
	}
}
