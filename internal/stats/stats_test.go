package stats

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/energymis/energymis/internal/sim"
)

func TestAccumulatorComposesPhases(t *testing.T) {
	a := NewAccumulator(4)
	a.AddPhase("p1", &sim.Result{
		Rounds:   10,
		Awake:    []int32{3, 0, 2, 1},
		MsgsSent: 7,
		BitsMax:  8,
	}, nil)
	// Phase 2 ran on a subgraph of nodes {0, 2} with local IDs {0, 1}.
	a.AddPhase("p2", &sim.Result{
		Rounds:   5,
		Awake:    []int32{4, 1},
		MsgsSent: 3,
		BitsMax:  16,
	}, []int32{0, 2})

	s := a.Summarize()
	if s.Rounds != 15 {
		t.Fatalf("Rounds = %d, want 15", s.Rounds)
	}
	if s.MaxAwake != 7 { // node 0: 3+4
		t.Fatalf("MaxAwake = %d, want 7", s.MaxAwake)
	}
	wantAvg := float64(3+4+0+2+1+1) / 4
	if s.AvgAwake != wantAvg {
		t.Fatalf("AvgAwake = %v, want %v", s.AvgAwake, wantAvg)
	}
	if s.MsgsSent != 10 || s.BitsMax != 16 {
		t.Fatalf("msgs=%d bitsMax=%d", s.MsgsSent, s.BitsMax)
	}
	per := a.AwakePerNode()
	if per[0] != 7 || per[1] != 0 || per[2] != 3 || per[3] != 1 {
		t.Fatalf("per-node = %v", per)
	}
}

func TestAddFlat(t *testing.T) {
	a := NewAccumulator(10)
	a.AddFlat("sync", 2, []int32{1, 5})
	s := a.Summarize()
	if s.Rounds != 2 || s.MaxAwake != 2 {
		t.Fatalf("summary = %+v", s)
	}
	if got := a.AwakePerNode()[5]; got != 2 {
		t.Fatalf("node 5 awake = %d", got)
	}
	if got := a.AwakePerNode()[0]; got != 0 {
		t.Fatalf("node 0 awake = %d", got)
	}
}

func TestP99(t *testing.T) {
	a := NewAccumulator(100)
	awake := make([]int32, 100)
	for i := range awake {
		awake[i] = int32(i)
	}
	a.AddPhase("p", &sim.Result{Rounds: 1, Awake: awake}, nil)
	s := a.Summarize()
	if s.P99Awake != 98 {
		t.Fatalf("P99Awake = %d", s.P99Awake)
	}
	if s.MaxAwake != 99 {
		t.Fatalf("MaxAwake = %d", s.MaxAwake)
	}
}

func TestSummaryString(t *testing.T) {
	a := NewAccumulator(2)
	a.AddPhase("phase-i", &sim.Result{Rounds: 3, Awake: []int32{1, 2}, Violations: 1}, nil)
	str := a.Summarize().String()
	for _, want := range []string{"n=2", "rounds=3", "phase-i", "CONGEST-VIOLATIONS=1"} {
		if !strings.Contains(str, want) {
			t.Fatalf("summary %q missing %q", str, want)
		}
	}
}

func TestEmptyAccumulator(t *testing.T) {
	a := NewAccumulator(0)
	a.AddPhase("p", &sim.Result{Rounds: 2}, nil)
	a.AddFlat("sync", 1, nil)
	s := a.Summarize()
	if s.Rounds != 3 || s.MaxAwake != 0 || s.AvgAwake != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	for _, p := range s.Phases {
		if p.AvgAwake != 0 {
			t.Fatalf("phase %s on the empty network: AvgAwake = %v, want 0", p.Name, p.AvgAwake)
		}
	}
}

// TestMaxP99MatchesSort holds MaxP99 to its definition, the maximum and
// index ⌊(n−1)·99/100⌋ of a sorted copy, on edge cases and random inputs
// that take the counting path (values below n) and the sorting path (a
// negative value, or a maximum of n or more).
func TestMaxP99MatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	random := func(n, hi int) []int64 {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(r.Intn(hi))
		}
		return xs
	}
	cases := []struct {
		name string
		xs   []int64
	}{
		{"empty", nil},
		{"one", []int64{0}},
		{"one-large", []int64{7}},
		{"two", []int64{1, 0}},
		{"ties", []int64{3, 1, 3, 3, 1, 2, 3, 3}},
		{"all-zeros", make([]int64, 500)},
		{"counting", random(1000, 40)},
		{"counting-top-at-bound", append(random(999, 40), 999)},
		{"outlier", append(random(1000, 40), 1_000_000)},
		{"negative", append(random(300, 40), -5)},
		{"wide", random(5000, 1<<40)},
	}
	for _, c := range cases {
		before := slices.Clone(c.xs)
		top, p99 := MaxP99(c.xs)
		if !slices.Equal(c.xs, before) {
			t.Fatalf("%s: MaxP99 modified its input", c.name)
		}
		var wantTop, wantP99 int64
		if n := len(c.xs); n > 0 {
			sorted := slices.Clone(c.xs)
			slices.Sort(sorted)
			wantTop, wantP99 = sorted[n-1], sorted[(n-1)*99/100]
		}
		if top != wantTop || p99 != wantP99 {
			t.Errorf("%s: MaxP99 = %d, %d; want %d, %d", c.name, top, p99, wantTop, wantP99)
		}
	}
}
