package shatter

import (
	"math"
	"testing"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/sim"
	"github.com/energymis/energymis/internal/verify"
)

// TestShatterSmallComponents checks Lemma 2.6: on a polylog-degree graph,
// like the residual Phase I leaves behind, shattering leaves survivor
// components of O(log² n) nodes, with the constant fixed at 0.25. Inputs:
// NearRegular(5000, 12) on seed 1, and NearRegular(n, 16) at n = 8,000
// and 32,000 on seeds 1–10. Worst measured: 0.071·log² n at n = 8,000 and
// 0.049·log² n at n = 32,000 (0.103 at n = 16,000).
func TestShatterSmallComponents(t *testing.T) {
	const c = 0.25
	for _, tc := range []struct {
		g     *graph.Graph
		seeds uint64
	}{
		{graph.NearRegular(5000, 12, 3), 1},
		{graph.NearRegular(8000, 16, 8000), 10},
		{graph.NearRegular(32000, 16, 32000), 10},
	} {
		g := tc.g
		log2n := math.Log2(float64(g.N()))
		worst := 0.0
		for seed := uint64(1); seed <= tc.seeds; seed++ {
			out, err := Run(g, DefaultParams(), sim.Config{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if ok, u, v := verify.IsIndependent(g, out.InSet); !ok {
				t.Fatalf("n=%d seed %d: dependent edge (%d,%d)", g.N(), seed, u, v)
			}
			_, maxComp := survivorComponents(g, out.Survivors)
			if bound := c * log2n * log2n; float64(maxComp) > bound {
				t.Fatalf("n=%d seed %d: max survivor component %d > %.0f (= %g log² n); shattering failed",
					g.N(), seed, maxComp, bound, c)
			}
			if len(out.Survivors) > g.N()/10 {
				t.Fatalf("n=%d seed %d: %d/%d survivors", g.N(), seed, len(out.Survivors), g.N())
			}
			worst = max(worst, float64(maxComp)/(log2n*log2n))
		}
		t.Logf("n=%d: worst max component = %.3f·log² n", g.N(), worst)
	}
}

// survivorComponents returns the connected components of g's subgraph
// induced on survivors, each as ascending node indices of g, and the size
// of the largest: the components Phase III finds on the phase's output.
func survivorComponents(g *graph.Graph, survivors []int) (comps [][]int, maxSize int) {
	sub := graph.InducedSubgraph(g, survivors)
	var cc graph.Components
	cc.Find(sub.Graph)
	comps = make([][]int, cc.Len())
	for c := range comps {
		for _, v := range cc.Comp(c) {
			comps[c] = append(comps[c], int(sub.Orig[v]))
		}
	}
	return comps, cc.MaxSize()
}

func TestComponentsPartitionSurvivors(t *testing.T) {
	g := graph.GNP(2000, 6.0/2000, 5)
	out, err := Run(g, DefaultParams(), sim.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	comps, _ := survivorComponents(g, out.Survivors)
	seen := map[int]bool{}
	total := 0
	for _, comp := range comps {
		for _, v := range comp {
			if seen[v] {
				t.Fatalf("node %d in two components", v)
			}
			seen[v] = true
			total++
		}
	}
	if total != len(out.Survivors) {
		t.Fatalf("components cover %d nodes, survivors %d", total, len(out.Survivors))
	}
	for _, v := range out.Survivors {
		if !seen[v] {
			t.Fatalf("survivor %d not in any component", v)
		}
	}
}

func TestEnergyEqualsRounds(t *testing.T) {
	// Phase II keeps all nodes awake: energy = 2 engine rounds per logical
	// round.
	g := graph.GNP(500, 0.02, 7)
	out, err := Run(g, DefaultParams(), sim.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Res.MaxAwake(); got > 2*out.Rounds {
		t.Fatalf("MaxAwake %d > 2*rounds %d", got, 2*out.Rounds)
	}
}

func TestEmptyGraph(t *testing.T) {
	out, err := Run(graph.NewBuilder(0).Build(), DefaultParams(), sim.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Survivors) != 0 {
		t.Fatal("empty graph produced survivors")
	}
}

func TestIsolatedNodesDecideFast(t *testing.T) {
	g := graph.NewBuilder(50).Build()
	out, err := Run(g, DefaultParams(), sim.Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Survivors) != 0 {
		t.Fatalf("isolated survivors: %d", len(out.Survivors))
	}
	if got := verify.Count(out.InSet); got != 50 {
		t.Fatalf("isolated nodes in set: %d", got)
	}
}
