package phase1

import (
	"math"
	"testing"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/schedule"
	"github.com/energymis/energymis/internal/sim"
	"github.com/energymis/energymis/internal/verify"
)

func TestMakePlan(t *testing.T) {
	plan := MakePlan(1<<16, 1<<12) // log2 n = 16, loglog = 4, trim 8
	if plan.Iterations != 4 {
		t.Fatalf("iterations = %d, want 4", plan.Iterations)
	}
	if plan.RoundsPerIter != 32 {
		t.Fatalf("roundsPerIter = %d, want 32", plan.RoundsPerIter)
	}
	if plan.T != 128 {
		t.Fatalf("T = %d", plan.T)
	}
	// Low degree: the iteration count floors at 0 and the phase is
	// skipped.
	if got := MakePlan(1<<16, 64).Iterations; got != 0 {
		t.Fatalf("low-degree iterations = %d, want 0", got)
	}
}

func runPhase(t *testing.T, g *graph.Graph, seed uint64) *Outcome {
	t.Helper()
	out, err := Run(g, sim.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestIndependence(t *testing.T) {
	// The set computed by Phase I must always be independent — this is the
	// correctness property the schedule (Lemma 2.5) protects across
	// cohorts.
	graphs := []*graph.Graph{
		graph.GNP(1500, 0.3, 1),
		graph.GNP(1000, 0.8, 2),
		graph.Complete(700),
		graph.BarabasiAlbert(2000, 40, 3),
		graph.CompleteBipartite(300, 300),
	}
	for gi, g := range graphs {
		for seed := uint64(0); seed < 5; seed++ {
			out, err := Run(g, sim.Config{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if ok, u, v := verify.IsIndependent(g, out.InSet); !ok {
				t.Fatalf("graph %d seed %d: set not independent, edge (%d,%d)", gi, seed, u, v)
			}
		}
	}
}

// TestResidualDegreeDrops checks Lemma 2.1: Phase I leaves a residual
// graph of maximum degree O(log² n), with the constant fixed at 4. The
// inputs are dense enough that the phase runs iterations: besides
// GNP(1500, 0.4), GNP(3000, 0.3), GNP(1500, 0.6), BA(6000, 50) with hub
// degrees, and the clique K_900, each on seeds 1–10. Worst measured:
// 2.78·log² n (BA, seed 3); every case runs 2 iterations. At half these
// sizes, GNP(750, 0.6) and K_450, the phase runs one iteration and on
// seed 5 removes no node.
func TestResidualDegreeDrops(t *testing.T) {
	const c = 4
	graphs := map[string]*graph.Graph{
		"gnp-1500-0.4": graph.GNP(1500, 0.4, 7),
		"gnp-3000-0.3": graph.GNP(3000, 0.3, 3),
		"gnp-1500-0.6": graph.GNP(1500, 0.6, 4),
		"ba-6000-50":   graph.BarabasiAlbert(6000, 50, 5),
		"clique-900":   graph.Complete(900),
	}
	for name, g := range graphs {
		log2n := math.Log2(float64(g.N()))
		bound := int(c * log2n * log2n)
		worst := 0.0
		for seed := uint64(1); seed <= 10; seed++ {
			out := runPhase(t, g, seed)
			if out.Plan.Iterations == 0 {
				t.Fatalf("%s seed %d: phase skipped; test graph not dense enough", name, seed)
			}
			got := graph.InducedSubgraph(g, out.Residual).MaxDegree()
			if got > bound {
				t.Fatalf("%s seed %d: residual max degree %d > %d (= %d log² n); input Δ was %d",
					name, seed, got, bound, c, g.MaxDegree())
			}
			if got >= g.MaxDegree() {
				t.Fatalf("%s seed %d: degree did not drop: %d -> %d", name, seed, g.MaxDegree(), got)
			}
			worst = max(worst, float64(got)/(log2n*log2n))
		}
		t.Logf("%s: worst residual Δ = %.2f·log² n", name, worst)
	}
}

func TestEnergyBound(t *testing.T) {
	// Awake rounds per node <= 3 * (|S| for the schedule) = O(log T) =
	// O(log log n).
	g := graph.GNP(1500, 0.4, 9)
	out := runPhase(t, g, 5)
	bound := 3 * schedule.MaxSize(out.Plan.T)
	if got := out.Res.MaxAwake(); got > bound {
		t.Fatalf("MaxAwake = %d > 3*|S| = %d (T=%d)", got, bound, out.Plan.T)
	}
}

func TestUnsampledNodesSleep(t *testing.T) {
	g := graph.GNP(1500, 0.4, 11)
	plan := MakePlan(g.N(), g.MaxDegree())
	machines, nodes := NewMachines(g, plan)
	res, err := sim.Run(g, machines, sim.Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for v, nm := range nodes {
		if !nm.Sampled() && res.Awake[v] != 0 {
			t.Fatalf("never-marked node %d was awake %d rounds", v, res.Awake[v])
		}
	}
}

func TestSampledFractionSmall(t *testing.T) {
	// Section 4.1: with iterTrim = 2 the per-node sampling probability is
	// O(1/log n); the sampled count must be well below n.
	g := graph.GNP(3000, 0.3, 13)
	out := runPhase(t, g, 7)
	if out.Sampled > g.N()/2 {
		t.Fatalf("sampled %d of %d nodes; expected a small fraction", out.Sampled, g.N())
	}
}

func TestSkippedPhaseOnSparseGraph(t *testing.T) {
	g := graph.GNP(1000, 0.005, 1)
	out := runPhase(t, g, 1)
	if out.Plan.Iterations != 0 {
		t.Fatalf("iterations = %d on sparse graph", out.Plan.Iterations)
	}
	if verify.Count(out.InSet) != 0 {
		t.Fatal("skipped phase computed a nonempty set")
	}
	if len(out.Residual) != g.N() {
		t.Fatal("skipped phase removed nodes")
	}
	if out.Res.MaxAwake() != 0 {
		t.Fatal("skipped phase consumed energy")
	}
}

func TestCongestCompliance(t *testing.T) {
	g := graph.GNP(1200, 0.5, 17)
	out := runPhase(t, g, 19)
	if out.Res.Violations != 0 {
		t.Fatalf("violations=%d bitsMax=%d", out.Res.Violations, out.Res.BitsMax)
	}
	if out.Res.BitsMax > 1 {
		t.Fatalf("phase1 messages should be single-bit; got %d", out.Res.BitsMax)
	}
}

func TestDeterministic(t *testing.T) {
	g := graph.GNP(800, 0.4, 21)
	a := runPhase(t, g, 42)
	b := runPhase(t, g, 42)
	for v := range a.InSet {
		if a.InSet[v] != b.InSet[v] {
			t.Fatalf("node %d differs across runs", v)
		}
	}
}

func TestSpoiledAccounting(t *testing.T) {
	g := graph.Complete(800)
	out := runPhase(t, g, 23)
	// In a clique nearly every marked node conflicts or is dominated; the
	// spoiled count must never exceed the sampled count.
	if out.Spoiled > out.Sampled {
		t.Fatalf("spoiled %d > sampled %d", out.Spoiled, out.Sampled)
	}
	if ok, u, v := verify.IsIndependent(g, out.InSet); !ok {
		t.Fatalf("clique set dependent: (%d,%d)", u, v)
	}
	if verify.Count(out.InSet) > 1 {
		t.Fatalf("clique independent set of size %d", verify.Count(out.InSet))
	}
}

func TestEmptyAndTinyGraphs(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.NewBuilder(0).Build(),
		graph.NewBuilder(5).Build(),
		graph.Path(2),
	} {
		out, err := Run(g, sim.Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if ok, _, _ := verify.IsIndependent(g, out.InSet); !ok {
			t.Fatal("tiny graph set not independent")
		}
	}
}
