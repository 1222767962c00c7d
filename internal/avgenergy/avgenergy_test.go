package avgenergy

import (
	"testing"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/pipeline"
	"github.com/energymis/energymis/internal/sim"
	"github.com/energymis/energymis/internal/verify"
)

// composed is Phase I-II's outcome with the independent set and the
// undecided nodes its pipeline composed.
type composed struct {
	*Outcome
	InSet     []bool
	Remaining []int
}

// runOn runs Phase I-II on all of g in a fresh pipeline.
func runOn(t *testing.T, g *graph.Graph, seed uint64) *composed {
	t.Helper()
	cfg := sim.Config{Seed: seed}
	pl := pipeline.New(g, cfg)
	all := make([]int, g.N())
	for v := range all {
		all[v] = v
	}
	pl.SetResidual(all, nil)
	out, err := Run(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &composed{out, pl.InSet(), pl.Residual()}
}

func TestIndependence(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		g := graph.NearRegular(2000, 20, seed+1)
		out := runOn(t, g, seed)
		if ok, u, v := verify.IsIndependent(g, out.InSet); !ok {
			t.Fatalf("seed %d: dependent edge (%d,%d)", seed, u, v)
		}
	}
}

func TestRemovesMostNodes(t *testing.T) {
	// Lemma 4.1's job: leave only a small fraction for Phases II/III.
	g := graph.NearRegular(6000, 24, 3)
	out := runOn(t, g, 7)
	if len(out.Remaining) > g.N()/8 {
		t.Fatalf("remaining %d of %d; want a small fraction (failed=%d)",
			len(out.Remaining), g.N(), out.Failed)
	}
}

func TestRemainingConsistent(t *testing.T) {
	g := graph.GNP(1500, 0.02, 5)
	out := runOn(t, g, 9)
	rem := map[int]bool{}
	for _, v := range out.Remaining {
		rem[v] = true
	}
	for v := 0; v < g.N(); v++ {
		if out.InSet[v] && rem[v] {
			t.Fatalf("node %d both in set and remaining", v)
		}
	}
	// Remaining nodes must not be dominated.
	for _, v := range out.Remaining {
		for _, u := range g.Neighbors(v) {
			if out.InSet[u] {
				t.Fatalf("remaining node %d is dominated by %d", v, u)
			}
		}
	}
}

func TestAverageEnergyIsSmall(t *testing.T) {
	// The whole point: averaged over nodes, the pipeline is cheap even on
	// graphs where worst-case-energy algorithms pay Θ(log Δ) everywhere.
	g := graph.NearRegular(8000, 30, 11)
	out := runOn(t, g, 13)
	avgA := out.StageARes.AvgAwake()
	avgB := out.StageBRes.AvgAwake()
	if avgA > 6 {
		t.Fatalf("stage A average awake %v; want O(1)-like", avgA)
	}
	if avgB > 45 {
		t.Fatalf("stage B average awake %v; want O(log d + log k)-like", avgB)
	}
	t.Logf("avg awake: stageA=%.2f stageB=%.2f remaining=%d/%d failed=%d",
		avgA, avgB, len(out.Remaining), g.N(), out.Failed)
}

func TestWorstCaseEnergyBounded(t *testing.T) {
	g := graph.NearRegular(4000, 30, 17)
	out := runOn(t, g, 19)
	// Stage A: schedule-based wake, O(log T) = O(log log n)-ish.
	if got := out.StageARes.MaxAwake(); got > 40 {
		t.Fatalf("stage A MaxAwake = %d", got)
	}
	// Stage B: one burst window + schedule announcements.
	if got := out.StageBRes.MaxAwake(); got > 80 {
		t.Fatalf("stage B MaxAwake = %d", got)
	}
}

func TestEmptyAndTinyGraphs(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.NewBuilder(0).Build(),
		graph.NewBuilder(10).Build(),
		graph.Path(3),
	} {
		out := runOn(t, g, 1)
		if ok, _, _ := verify.IsIndependent(g, out.InSet); !ok {
			t.Fatal("tiny graph dependent set")
		}
	}
}

func TestDegTarget(t *testing.T) {
	if got := degTarget(16); got != minDegTarget {
		t.Fatalf("degTarget(16) = %d", got)
	}
	if degTarget(1<<20) < minDegTarget {
		t.Fatal("target below floor")
	}
}

func TestCongest(t *testing.T) {
	g := graph.NearRegular(2000, 25, 23)
	out := runOn(t, g, 29)
	if out.StageARes.Violations+out.StageBRes.Violations != 0 {
		t.Fatal("CONGEST violations")
	}
}

func TestDeterministic(t *testing.T) {
	g := graph.GNP(800, 0.03, 31)
	a := runOn(t, g, 42)
	b := runOn(t, g, 42)
	for v := range a.InSet {
		if a.InSet[v] != b.InSet[v] {
			t.Fatalf("node %d differs", v)
		}
	}
}
