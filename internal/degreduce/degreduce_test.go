package degreduce

import (
	"math"
	"testing"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/pipeline"
	"github.com/energymis/energymis/internal/schedule"
	"github.com/energymis/energymis/internal/sim"
	"github.com/energymis/energymis/internal/verify"
)

func TestMakePlan(t *testing.T) {
	plan := MakePlan(1024, 10000)
	if plan.T != 20 {
		t.Fatalf("T = %d, want 20", plan.T)
	}
	if plan.TagProb <= 0 || plan.TagProb > 0.011 {
		t.Fatalf("TagProb = %v", plan.TagProb)
	}
	if plan.PreMarkProb >= plan.TagProb {
		t.Fatalf("PreMarkProb %v should be below TagProb %v at this Δ", plan.PreMarkProb, plan.TagProb)
	}
	if plan.HighThresh <= 0 {
		t.Fatal("HighThresh not positive")
	}
}

func TestStopDelta(t *testing.T) {
	if got := stopDelta(2); got != stopMin {
		t.Fatalf("stopDelta(2) = %d", got)
	}
	if got := stopDelta(1 << 20); got != 400 { // (log2 n)^2 = 400
		t.Fatalf("stopDelta(2^20) = %d, want 400", got)
	}
}

// reduced is a reduction's outcome with the independent set and the
// residual its pipeline composed.
type reduced struct {
	*Outcome
	InSet    []bool
	Residual []int
}

// reduce runs a reduction (Run, or a runLoop variant) on g in a fresh
// pipeline.
func reduce(g *graph.Graph, cfg sim.Config,
	run func(*pipeline.Pipeline, sim.Config) (*Outcome, error)) (*reduced, error) {
	pl := pipeline.New(g, cfg)
	out, err := run(pl, cfg)
	if err != nil {
		return nil, err
	}
	return &reduced{out, pl.InSet(), pl.Residual()}, nil
}

func runReduce(t *testing.T, g *graph.Graph, seed uint64) *reduced {
	t.Helper()
	out, err := reduce(g, sim.Config{Seed: seed}, Run)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestIndependence(t *testing.T) {
	graphs := []*graph.Graph{
		graph.GNP(1200, 0.3, 1),
		graph.Complete(500),
		graph.BarabasiAlbert(1500, 40, 2),
		graph.CompleteBipartite(250, 250),
	}
	for gi, g := range graphs {
		for seed := uint64(0); seed < 4; seed++ {
			out := runReduce(t, g, seed)
			if ok, u, v := verify.IsIndependent(g, out.InSet); !ok {
				t.Fatalf("graph %d seed %d: dependent edge (%d,%d)", gi, seed, u, v)
			}
		}
	}
}

func TestDegreeReduction(t *testing.T) {
	g := graph.GNP(2000, 0.3, 3)
	out := runReduce(t, g, 5)
	if len(out.Iters) == 0 {
		t.Fatal("no iterations ran on a dense graph")
	}
	stop := stopDelta(g.N())
	sub := graph.InducedSubgraph(g, out.Residual)
	if got := sub.MaxDegree(); got > 4*stop {
		t.Fatalf("residual max degree %d > 4*stop=%d (input Δ=%d, iters=%d, boundExceeded=%d)",
			got, 4*stop, g.MaxDegree(), len(out.Iters), out.BoundExceeded)
	}
	// Progress within each iteration: measured degree after iteration i
	// must be below the incoming bound.
	for i, st := range out.Iters {
		if st.MeasuredD >= st.Delta && st.Delta > 1 {
			t.Fatalf("iteration %d did not reduce: Δ=%d measured=%d", i, st.Delta, st.MeasuredD)
		}
	}
}

// TestMultipleIterations runs the reduction loop down to a small stop
// degree and checks Lemma 3.1 on every iteration: the measured residual
// degree Δ' is at most c·Δ^0.7 of the iteration's bound Δ, with c fixed
// at 1. Inputs: GNP(1500, 0.4) on seed 9 (stop degree 8), and
// GNP(2500, 0.35) on seeds 1–10 (stop degree 16). Worst measured:
// Δ' = 0.48·Δ^0.7 (0.91 on GNP(1250, 0.35)).
func TestMultipleIterations(t *testing.T) {
	const c = 1.0
	for _, tc := range []struct {
		g     *graph.Graph
		stop  int
		seeds []uint64
	}{
		{graph.GNP(1500, 0.4, 7), 8, []uint64{9}},
		{graph.GNP(2500, 0.35, 8), 16, []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
	} {
		g := tc.g
		worst := 0.0
		for _, seed := range tc.seeds {
			out, err := reduce(g, sim.Config{Seed: seed}, func(pl *pipeline.Pipeline, cfg sim.Config) (*Outcome, error) {
				return runLoop(pl, tc.stop, cfg, runIterBatch)
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(out.Iters) < 3 {
				t.Fatalf("n=%d seed %d: expected >=3 iterations, got %d", g.N(), seed, len(out.Iters))
			}
			for i, it := range out.Iters {
				// Bounds must be strictly decreasing.
				if i > 0 && it.Delta >= out.Iters[i-1].Delta {
					t.Fatalf("n=%d seed %d: Δ did not decrease: %d -> %d", g.N(), seed, out.Iters[i-1].Delta, it.Delta)
				}
				bound := c * math.Pow(float64(it.Delta), 0.7)
				if float64(it.MeasuredD) > bound {
					t.Fatalf("n=%d seed %d iteration %d: measured Δ' = %d > %.1f (= %g·Δ^0.7, Δ = %d)",
						g.N(), seed, i, it.MeasuredD, bound, c, it.Delta)
				}
				worst = max(worst, float64(it.MeasuredD)/math.Pow(float64(it.Delta), 0.7))
			}
			if ok, u, v := verify.IsIndependent(g, out.InSet); !ok {
				t.Fatalf("n=%d seed %d: dependent edge (%d,%d)", g.N(), seed, u, v)
			}
		}
		t.Logf("n=%d: worst Δ' = %.2f·Δ^0.7", g.N(), worst)
	}
}

func TestEnergyPerIteration(t *testing.T) {
	g := graph.GNP(2000, 0.3, 11)
	out := runReduce(t, g, 13)
	for i, st := range out.Iters {
		// Sampled nodes: |S| schedule rounds + 3 cohort rounds + 4 end
		// rounds. Unsampled: 4 end rounds.
		bound := schedule.MaxSize(MakePlan(g.N(), st.Delta).T) + 3 + 4
		if got := st.Res.MaxAwake(); got > bound {
			t.Fatalf("iteration %d: MaxAwake %d > %d", i, got, bound)
		}
	}
}

func TestUnsampledNodesOnlyPayEndWindow(t *testing.T) {
	g := graph.GNP(1500, 0.3, 15)
	machines, nodes := newMachines(g, MakePlan(g.N(), g.MaxDegree()))
	res, err := sim.Run(g, machines, sim.Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for v, nm := range nodes {
		if !nm.Sampled() && res.Awake[v] > 4 {
			t.Fatalf("unsampled node %d awake %d rounds", v, res.Awake[v])
		}
	}
}

func TestCongestCompliance(t *testing.T) {
	g := graph.GNP(1200, 0.4, 17)
	out := runReduce(t, g, 19)
	for i, st := range out.Iters {
		if st.Res.Violations != 0 {
			t.Fatalf("iteration %d: %d violations (bitsMax=%d)", i, st.Res.Violations, st.Res.BitsMax)
		}
	}
}

func TestSparseGraphSkipsPhase(t *testing.T) {
	g := graph.GNP(1000, 0.01, 1)
	out := runReduce(t, g, 1)
	if len(out.Iters) != 0 {
		t.Fatalf("iterations = %d on low-degree graph", len(out.Iters))
	}
	if len(out.Residual) != g.N() {
		t.Fatal("sparse graph lost nodes")
	}
}

func TestDeterministic(t *testing.T) {
	g := graph.GNP(900, 0.3, 23)
	a := runReduce(t, g, 42)
	b := runReduce(t, g, 42)
	for v := range a.InSet {
		if a.InSet[v] != b.InSet[v] {
			t.Fatalf("node %d differs", v)
		}
	}
}

func TestCliqueReduces(t *testing.T) {
	g := graph.Complete(600)
	out := runReduce(t, g, 25)
	if ok, _, _ := verify.IsIndependent(g, out.InSet); !ok {
		t.Fatal("clique set dependent")
	}
	sub := graph.InducedSubgraph(g, out.Residual)
	if sub.MaxDegree() >= g.MaxDegree() {
		t.Fatalf("clique did not reduce: %d -> %d", g.MaxDegree(), sub.MaxDegree())
	}
}
