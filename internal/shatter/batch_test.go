package shatter

import (
	"testing"

	"github.com/energymis/energymis/internal/ghaffari"
	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/sim"
)

// perNode runs the phase with one ghaffari.Machine per node through
// sim.Run, and labels the survivor components by a plain BFS: the
// reference Run is differentially tested against. comp[v] is the
// smallest survivor id in v's component, or -1 when v decided.
func perNode(t *testing.T, g *graph.Graph, rounds int, cfg sim.Config) (inSet []bool, survivors, comp []int, res *sim.Result) {
	t.Helper()
	nodes := make([]*ghaffari.Machine, g.N())
	machines := make([]sim.Machine, g.N())
	for v := range machines {
		nodes[v] = ghaffari.NewMachine(1, rounds)
		machines[v] = nodes[v]
	}
	res, err := sim.Run(g, machines, cfg)
	if err != nil {
		t.Fatalf("per-node run: %v", err)
	}
	inSet = make([]bool, g.N())
	comp = make([]int, g.N())
	for v, nm := range nodes {
		inSet[v] = nm.Proto().InMIS[0]
		comp[v] = -1
		if nm.Proto().Undecided(0) {
			survivors = append(survivors, v)
		}
	}
	for _, s := range survivors {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = s
		for queue := []int{s}; len(queue) > 0; queue = queue[1:] {
			for _, w := range g.Neighbors(queue[0]) {
				if u := int(w); nodes[u].Proto().Undecided(0) && comp[u] < 0 {
					comp[u] = s
					queue = append(queue, u)
				}
			}
		}
	}
	return inSet, survivors, comp, res
}

// TestBatchMatchesLegacy is the differential gate of the phase's batch
// path: Run (ghaffari.RunShatter on the batch runtime) must produce the
// same Outcome — set, survivors, components — and identical complexity
// counters as the per-node machines through sim.Run.
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
			refSet, refSurv, refComp, r := perNode(t, tc.g, rounds, sim.Config{Seed: seed})
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
				t.Fatalf("%s seed=%d: %d survivors in %d rounds, per-node %d in %d",
					tc.name, seed, len(got.Survivors), got.Rounds, len(refSurv), rounds)
			}
			for i := range got.Survivors {
				if got.Survivors[i] != refSurv[i] {
					t.Fatalf("%s seed=%d: survivor[%d] differs", tc.name, seed, i)
				}
			}
			// Components must partition the survivors exactly as the
			// per-node BFS does: label each by its smallest member.
			label := make([]int, tc.g.N())
			for v := range label {
				label[v] = -1
			}
			sizes := map[int]int{}
			for _, c := range got.Components {
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
					t.Fatalf("%s seed=%d: node %d labelled %d, per-node BFS %d",
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
			if got.MaxComponent != refMax {
				t.Fatalf("%s seed=%d: MaxComponent %d, per-node BFS %d",
					tc.name, seed, got.MaxComponent, refMax)
			}
			gr := got.Res
			if gr.Rounds != r.Rounds || gr.MsgsSent != r.MsgsSent || gr.MsgsDropped != r.MsgsDropped ||
				gr.BitsTotal != r.BitsTotal || gr.BitsMax != r.BitsMax || gr.Violations != r.Violations {
				t.Fatalf("%s seed=%d: counters differ\n per-node: %+v\n batch:    %+v",
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
