package rng

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := NewForNode(42, 7)
	b := NewForNode(42, 7)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("streams diverged at step %d: %d != %d", i, got, want)
		}
	}
}

func TestNodeStreamsDiffer(t *testing.T) {
	a := NewForNode(42, 0)
	b := NewForNode(42, 1)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent node streams collided %d/64 times", same)
	}
}

func TestSeedChangesStream(t *testing.T) {
	a := NewForNode(1, 5)
	b := NewForNode(2, 5)
	if a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() {
		t.Fatal("different seeds produced identical stream prefix")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(9)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(123)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(7)
	for _, n := range []int{1, 2, 3, 10, 1000, 1 << 30} {
		for i := 0; i < 1000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	s := New(55)
	const buckets, draws = 8, 160000
	counts := make([]int, buckets)
	for i := 0; i < draws; i++ {
		counts[s.Intn(buckets)]++
	}
	want := float64(draws) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates from %v", b, c, want)
		}
	}
}

func TestBernoulliEdges(t *testing.T) {
	s := New(3)
	for i := 0; i < 100; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if s.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !s.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	s := New(31)
	const p, n = 0.3, 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(p) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-p) > 0.01 {
		t.Fatalf("Bernoulli(%v) rate %v", p, rate)
	}
}

func TestFirstSuccess(t *testing.T) {
	s := New(17)
	if got := s.FirstSuccess(0, 100); got != -1 {
		t.Fatalf("FirstSuccess(0) = %d, want -1", got)
	}
	if got := s.FirstSuccess(0.5, 0); got != -1 {
		t.Fatalf("FirstSuccess with 0 rounds = %d, want -1", got)
	}
	if got := s.FirstSuccess(1, 10); got != 0 {
		t.Fatalf("FirstSuccess(1) = %d, want 0", got)
	}
	// Distribution sanity: with p=0.5 the mean first success index is ~1.
	sum, n := 0.0, 20000
	for i := 0; i < n; i++ {
		v := s.FirstSuccess(0.5, 64)
		if v < 0 {
			v = 64
		}
		sum += float64(v)
	}
	mean := sum / float64(n)
	if mean < 0.9 || mean > 1.1 {
		t.Fatalf("FirstSuccess(0.5) mean index %v, want ~1.0", mean)
	}
}

// TestGoldenStream pins the generator's output: New(1)'s first four
// values, computed before Uint64 was rewritten over local state copies.
// Every counter of every run depends on them.
func TestGoldenStream(t *testing.T) {
	s := New(1)
	for i, want := range []uint64{0xcfc5d07f6f03c29b, 0xbf424132963fe08d, 0x19a37d5757aaf520, 0xbf08119f05cd56d6} {
		if got := s.Uint64(); got != want {
			t.Fatalf("New(1) value %d = %#016x, want %#016x", i, got, want)
		}
	}
}

// bernoulliLoop is FirstSuccess's specification: rounds Bernoulli(p)
// trials, stopping at the first success.
func bernoulliLoop(s *Stream, p float64, rounds int) int {
	for i := 0; i < rounds; i++ {
		if s.Bernoulli(p) {
			return i
		}
	}
	return -1
}

// checkFirstSuccess requires FirstSuccess to return bernoulliLoop's index
// and to leave the stream where bernoulliLoop leaves it.
func checkFirstSuccess(t *testing.T, seed uint64, p float64, rounds int) {
	t.Helper()
	a, b := New(seed), New(seed)
	got, want := a.FirstSuccess(p, rounds), bernoulliLoop(b, p, rounds)
	if got != want {
		t.Fatalf("seed %d p=%v (%#x) rounds=%d: FirstSuccess %d, Bernoulli loop %d", seed, p, math.Float64bits(p), rounds, got, want)
	}
	if a.Uint64() != b.Uint64() {
		t.Fatalf("seed %d p=%v (%#x) rounds=%d: FirstSuccess consumed a different number of draws", seed, p, math.Float64bits(p), rounds)
	}
}

// firstSuccessProbs are the edge cases of FirstSuccess's threshold: NaN,
// the infinities, both zeros, the smallest subnormal, 2⁻⁵³ and the next
// float above it, the largest float below 1, 1 and 1.5, and the first
// degree-reduction iteration's tagging and pre-marking probabilities on
// BA n=16384 m=5 (Δ=447, as in misbench's static-alg2-ba).
var firstSuccessProbs = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	math.SmallestNonzeroFloat64, 0x1p-53, math.Nextafter(0x1p-53, 1),
	1 - 0x1p-53, 1, 1.5,
	math.Pow(447, -0.5), 1 / (2 * math.Pow(447, 0.6)),
}

// TestFirstSuccessThresholdBoundary draws, against each p in (0, 1) of
// firstSuccessProbs and a few more, a variate whose upper 53 bits u lie on
// either side of p·2⁵³ (one below, at and above ⌊p·2⁵³⌋ and ⌈p·2⁵³⌉): the
// comparisons a random stream hits with probability about 2⁻⁵³. A stream
// whose first state word is 0 yields RotateLeft64(s[3], 23) next.
func TestFirstSuccessThresholdBoundary(t *testing.T) {
	probs := append([]float64{0.1, 0.3, 0.5, 1.0 / 3, 0x1p-30 + 0x1p-52}, firstSuccessProbs...)
	for _, p := range probs {
		if !(p > 0 && p < 1) {
			continue
		}
		q := p * (1 << 53)
		for _, u := range []float64{math.Floor(q) - 1, math.Floor(q), math.Ceil(q), math.Ceil(q) + 1} {
			if u < 0 || u >= 1<<53 {
				continue
			}
			x := uint64(u)<<11 | 0x5a5
			a := Stream{s: [4]uint64{0, 0x1234, 0x5678, bits.RotateLeft64(x, -23)}}
			b := a
			if got, want := a.FirstSuccess(p, 1), bernoulliLoop(&b, p, 1); got != want {
				t.Errorf("p=%v (%#x) u=%.0f: FirstSuccess %d, Bernoulli loop %d", p, math.Float64bits(p), u, got, want)
			}
		}
	}
}

// FuzzFirstSuccessMatchesBernoulli holds FirstSuccess to the Bernoulli
// loop for any p, given as raw float64 bits, and rounds up to 300. Its
// seed corpus, which every go test runs, crosses firstSuccessProbs with
// 0, 1, 28 (static-alg2-ba's T) and 300 rounds.
func FuzzFirstSuccessMatchesBernoulli(f *testing.F) {
	for i, p := range firstSuccessProbs {
		for _, rounds := range []uint16{0, 1, 28, 300} {
			f.Add(uint64(i), math.Float64bits(p), rounds)
		}
	}
	f.Fuzz(func(t *testing.T, seed, pBits uint64, rounds uint16) {
		checkFirstSuccess(t, seed, math.Float64frombits(pBits), int(rounds%301))
	})
}

func TestFirstSuccessInRange(t *testing.T) {
	f := func(seed uint64, rounds uint8) bool {
		s := New(seed)
		r := int(rounds%32) + 1
		v := s.FirstSuccess(0.2, r)
		return v >= -1 && v < r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPerm(t *testing.T) {
	s := New(77)
	for _, n := range []int{0, 1, 2, 5, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestForkIndependence(t *testing.T) {
	s := New(5)
	a := s.Fork(1)
	b := s.Fork(2)
	c := s.Fork(1)
	if a.Uint64() != c.Uint64() {
		t.Fatal("Fork with same tag not deterministic")
	}
	aNext, bNext := a.Uint64(), b.Uint64()
	if aNext == bNext {
		t.Fatal("Fork with different tags produced identical values")
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkBernoulli(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Bernoulli(0.1)
	}
}

// BenchmarkFirstSuccess draws one node's two first successes of degree
// reduction's first iteration on BA n=16384 m=5: the tagging and
// pre-marking probabilities at the end of firstSuccessProbs, each over
// T = 28 trials.
func BenchmarkFirstSuccess(b *testing.B) {
	tag, pre := firstSuccessProbs[len(firstSuccessProbs)-2], firstSuccessProbs[len(firstSuccessProbs)-1]
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.FirstSuccess(tag, 28)
		s.FirstSuccess(pre, 28)
	}
}
