package bitvec

import (
	"testing"
	"testing/quick"
)

func TestSetGet(t *testing.T) {
	v := New(130)
	idxs := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, i := range idxs {
		v.Set(i, true)
	}
	for i := 0; i < v.Len(); i++ {
		want := false
		for _, j := range idxs {
			if i == j {
				want = true
			}
		}
		if v.Get(i) != want {
			t.Fatalf("bit %d = %v, want %v", i, v.Get(i), want)
		}
	}
	v.Set(64, false)
	if v.Get(64) {
		t.Fatal("clearing bit 64 failed")
	}
}

func TestOnesCountAndFill(t *testing.T) {
	v := New(100)
	if v.OnesCount() != 0 {
		t.Fatal("fresh vector not empty")
	}
	v.Fill(true)
	if got := v.OnesCount(); got != 100 {
		t.Fatalf("Fill(true) OnesCount = %d, want 100", got)
	}
	v.Fill(false)
	if v.OnesCount() != 0 {
		t.Fatal("Fill(false) left bits set")
	}
}

func TestAndOr(t *testing.T) {
	a, b := New(70), New(70)
	a.Set(3, true)
	a.Set(69, true)
	b.Set(3, true)
	b.Set(10, true)
	c := a.Clone()
	c.And(b)
	if c.OnesCount() != 1 || !c.Get(3) {
		t.Fatalf("And wrong: %v", c)
	}
	d := a.Clone()
	d.Or(b)
	if d.OnesCount() != 3 || !d.Get(3) || !d.Get(10) || !d.Get(69) {
		t.Fatalf("Or wrong: %v", d)
	}
}

func TestAndLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("And with mismatched lengths did not panic")
		}
	}()
	New(10).And(New(11))
}

func TestFirstSet(t *testing.T) {
	v := New(200)
	if v.FirstSet() != -1 {
		t.Fatal("empty vector FirstSet != -1")
	}
	v.Set(130, true)
	v.Set(131, true)
	if got := v.FirstSet(); got != 130 {
		t.Fatalf("FirstSet = %d, want 130", got)
	}
	v.Set(5, true)
	if got := v.FirstSet(); got != 5 {
		t.Fatalf("FirstSet = %d, want 5", got)
	}
}

func TestCloneIndependent(t *testing.T) {
	v := New(64)
	v.Set(1, true)
	w := v.Clone()
	w.Set(2, true)
	if v.Get(2) {
		t.Fatal("Clone shares storage")
	}
	if !w.Get(1) {
		t.Fatal("Clone lost bits")
	}
}

func TestEqual(t *testing.T) {
	a, b := New(65), New(65)
	if !a.Equal(b) {
		t.Fatal("empty vectors not equal")
	}
	a.Set(64, true)
	if a.Equal(b) {
		t.Fatal("different vectors equal")
	}
	if a.Equal(New(64)) {
		t.Fatal("different lengths equal")
	}
}

func TestWordsRoundTrip(t *testing.T) {
	f := func(nRaw uint16, bitsToSet []uint16) bool {
		n := int(nRaw%300) + 1
		v := New(n)
		for _, b := range bitsToSet {
			v.Set(int(b)%n, true)
		}
		u := FromWords(n, v.Words())
		return u.Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFromWordsTrims(t *testing.T) {
	// Extra high bits beyond n must be discarded.
	v := FromWords(3, []uint64{0xFF})
	if got := v.OnesCount(); got != 3 {
		t.Fatalf("FromWords did not trim: OnesCount = %d, want 3", got)
	}
}

func TestString(t *testing.T) {
	v := New(4)
	v.Set(1, true)
	v.Set(3, true)
	if got := v.String(); got != "0101" {
		t.Fatalf("String = %q, want 0101", got)
	}
}

func TestBitsForRange(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1024, 10}, {1025, 11},
	}
	for _, c := range cases {
		if got := BitsForRange(c.n); got != c.want {
			t.Errorf("BitsForRange(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	v := New(8)
	for _, i := range []int{-1, 8, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Get(%d) did not panic", i)
				}
			}()
			v.Get(i)
		}()
	}
}
