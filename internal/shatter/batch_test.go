package shatter

import (
	"testing"

	"github.com/energymis/energymis/internal/ghaffari"
	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/sim"
)

// reference runs the dynamics through ghaffari.RunShatter, which
// ghaffari.TestRunShatterMatchesLegacy holds to the per-node machines on
// these graphs, seeds and round counts, and labels the survivor
// components by a plain BFS: the reference Run is tested against.
// comp[v] is the smallest survivor id in v's component, or -1 when v
// decided.
func reference(t *testing.T, g *graph.Graph, rounds int, cfg sim.Config) (inSet []bool, survivors, comp []int, res *sim.Result) {
	t.Helper()
	inSet, survivors, res, err := ghaffari.RunShatter(g, rounds, cfg)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	undecided := make([]bool, g.N())
	for _, s := range survivors {
		undecided[s] = true
	}
	comp = make([]int, g.N())
	for v := range comp {
		comp[v] = -1
	}
	for _, s := range survivors {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = s
		for queue := []int{s}; len(queue) > 0; queue = queue[1:] {
			for _, w := range g.Neighbors(queue[0]) {
				if u := int(w); undecided[u] && comp[u] < 0 {
					comp[u] = s
					queue = append(queue, u)
				}
			}
		}
	}
	return inSet, survivors, comp, res
}

// TestBatchMatchesLegacy is the differential gate of the phase: Run must
// produce the Outcome of the reference above (the dynamics' set and
// survivors, at the phase's round count) and its complexity counters, and
// the survivors' components, found as Phase III finds them, must be the
// BFS components.
func TestBatchMatchesLegacy(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", graph.GNP(600, 10.0/600, 3)},
		{"rgg", graph.RGG(300, 8, 5)},
		{"clique", graph.Complete(50)},
		{"isolated", graph.FromEdges(10, [][2]int{{0, 1}})},
		{"empty", graph.FromEdges(0, nil)},
	}
	for _, tc := range cases {
		rounds := DefaultParams().Rounds(tc.g.MaxDegree())
		for seed := uint64(1); seed <= 3; seed++ {
			refSet, refSurv, refComp, r := reference(t, tc.g, rounds, sim.Config{Seed: seed})
			got, err := Run(tc.g, DefaultParams(), sim.Config{Seed: seed})
			if err != nil {
				t.Fatalf("%s seed=%d batch: %v", tc.name, seed, err)
			}
			for v := range refSet {
				if got.InSet[v] != refSet[v] {
					t.Fatalf("%s seed=%d: InSet[%d] differs", tc.name, seed, v)
				}
			}
			if len(got.Survivors) != len(refSurv) || got.Rounds != rounds {
				t.Fatalf("%s seed=%d: %d survivors in %d rounds, reference %d in %d",
					tc.name, seed, len(got.Survivors), got.Rounds, len(refSurv), rounds)
			}
			for i := range got.Survivors {
				if got.Survivors[i] != refSurv[i] {
					t.Fatalf("%s seed=%d: survivor[%d] differs", tc.name, seed, i)
				}
			}
			// Components must partition the survivors exactly as the
			// BFS does: label each by its smallest member.
			label := make([]int, tc.g.N())
			for v := range label {
				label[v] = -1
			}
			sizes := map[int]int{}
			comps, maxComp := survivorComponents(tc.g, got.Survivors)
			for _, c := range comps {
				least := c[0]
				for _, v := range c {
					least = min(least, v)
				}
				for _, v := range c {
					if label[v] >= 0 {
						t.Fatalf("%s seed=%d: node %d is in two components", tc.name, seed, v)
					}
					label[v] = least
				}
			}
			for v := range label {
				if label[v] != refComp[v] {
					t.Fatalf("%s seed=%d: node %d labelled %d, BFS %d",
						tc.name, seed, v, label[v], refComp[v])
				}
				if refComp[v] >= 0 {
					sizes[refComp[v]]++
				}
			}
			refMax := 0
			for _, size := range sizes {
				refMax = max(refMax, size)
			}
			if maxComp != refMax {
				t.Fatalf("%s seed=%d: largest component %d, BFS %d",
					tc.name, seed, maxComp, refMax)
			}
			gr := got.Res
			if gr.Rounds != r.Rounds || gr.MsgsSent != r.MsgsSent || gr.MsgsDropped != r.MsgsDropped ||
				gr.BitsTotal != r.BitsTotal || gr.BitsMax != r.BitsMax || gr.Violations != r.Violations {
				t.Fatalf("%s seed=%d: counters differ\n reference: %+v\n Run:       %+v",
					tc.name, seed, r, gr)
			}
			for v := range gr.Awake {
				if gr.Awake[v] != r.Awake[v] {
					t.Fatalf("%s seed=%d: Awake[%d] differs", tc.name, seed, v)
				}
			}
		}
	}
}
