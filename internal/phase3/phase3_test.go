package phase3

import (
	"math"
	"testing"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/sim"
	"github.com/energymis/energymis/internal/verify"
)

func TestTimetableLayout(t *testing.T) {
	tt := NewTimetable(100, 20, ModeAlg1, DefaultParams())
	if tt.D != 21 {
		t.Fatalf("D = %d, want 21", tt.D)
	}
	if tt.LR != 2 {
		t.Fatalf("LR = %d", tt.LR)
	}
	if tt.Classes >= 100 || tt.Classes < 2 {
		t.Fatalf("Classes = %d", tt.Classes)
	}
	l := tt.layout
	// Stage offsets must be strictly increasing and fit in the length.
	offs := []int{l.x0, l.cc1, l.bc1, l.x1, l.cc2, l.bc2, l.x2a, l.x2b, l.cvBase, l.clBase, l.cc3, l.bc3, l.xr, l.xr2, l.mgBase}
	for i := 1; i < len(offs); i++ {
		if offs[i] <= offs[i-1] {
			t.Fatalf("offsets not increasing: %v", offs)
		}
	}
	if l.mgBase+4*(2*l.d+1) != l.length {
		t.Fatalf("length mismatch: %d vs %d", l.mgBase+4*(2*l.d+1), l.length)
	}
	if tt.TotalLen <= tt.finBase {
		t.Fatal("finisher not scheduled")
	}
}

func TestTimetableAlg2Palette(t *testing.T) {
	tt := NewTimetable(1<<20, 30, ModeAlg2, DefaultParams())
	if tt.Classes > 8 {
		t.Fatalf("Alg2 classes = %d, want O(1)", tt.Classes)
	}
	tt1 := NewTimetable(1<<20, 30, ModeAlg1, DefaultParams())
	if tt1.LR != 2 {
		t.Fatalf("Alg1 LR = %d", tt1.LR)
	}
	if tt1.Classes < tt.Classes {
		t.Fatalf("Alg1 classes %d < Alg2 classes %d", tt1.Classes, tt.Classes)
	}
}

func TestCVStep(t *testing.T) {
	// Proper input: own != parent implies new(own) != new(parent') for the
	// chained application; here just check determinism and range.
	for own := int32(0); own < 32; own++ {
		for par := int32(0); par < 32; par++ {
			if own == par {
				continue
			}
			c := cvStep(own, par)
			if c < 0 || c >= 12 {
				t.Fatalf("cvStep(%d,%d) = %d out of range", own, par, c)
			}
			// The defining property: applying the step to both sides of an
			// edge yields different colors.
			c2 := cvStep(par, own)
			if c == c2 {
				t.Fatalf("cvStep collision: (%d,%d) -> %d, %d", own, par, c, c2)
			}
		}
	}
}

func runP3(t *testing.T, g *graph.Graph, mode Mode, seed uint64) *Outcome {
	t.Helper()
	out, err := Run(g, mode, DefaultParams(), sim.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func checkMIS(t *testing.T, g *graph.Graph, out *Outcome) {
	t.Helper()
	if len(out.Undecided) > 0 {
		t.Fatalf("%d undecided nodes (broken=%d, attempts=%d)", len(out.Undecided), out.BrokenNodes, out.MaxAttempts)
	}
	if err := verify.Check(g, out.InSet); err != nil {
		t.Fatal(err)
	}
}

func TestSingleEdge(t *testing.T) {
	g := graph.Path(2)
	out := runP3(t, g, ModeAlg1, 1)
	checkMIS(t, g, out)
}

func TestTriangle(t *testing.T) {
	g := graph.Cycle(3)
	out := runP3(t, g, ModeAlg1, 2)
	checkMIS(t, g, out)
	if verify.Count(out.InSet) != 1 {
		t.Fatalf("triangle MIS size %d", verify.Count(out.InSet))
	}
}

func TestIsolatedNodes(t *testing.T) {
	g := graph.NewBuilder(5).Build()
	out := runP3(t, g, ModeAlg1, 3)
	checkMIS(t, g, out)
	if verify.Count(out.InSet) != 5 {
		t.Fatal("isolated nodes must all join")
	}
}

func TestSmallGraphsBothModes(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"path10":    graph.Path(10),
		"cycle9":    graph.Cycle(9),
		"star12":    graph.Star(12),
		"k5":        graph.Complete(5),
		"grid4x4":   graph.Grid2D(4, 4),
		"twocomps":  graph.FromEdges(7, [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {5, 6}}),
		"binary":    graph.RandomTree(15, 3),
		"dumbbell":  graph.FromEdges(8, [][2]int{{0, 1}, {0, 2}, {1, 2}, {3, 4}, {3, 5}, {4, 5}, {2, 3}, {6, 7}}),
		"bipartite": graph.CompleteBipartite(3, 4),
	}
	for name, g := range graphs {
		for _, mode := range []Mode{ModeAlg1, ModeAlg2} {
			t.Run(name, func(t *testing.T) {
				out := runP3(t, g, mode, 7)
				checkMIS(t, g, out)
			})
		}
	}
}

func TestShatteredResidualScale(t *testing.T) {
	// The realistic input: many small components.
	g := graph.FromEdges(0, nil)
	b := graph.NewBuilder(300)
	// 30 components of 10 nodes each (random trees plus chords).
	for c := 0; c < 30; c++ {
		base := c * 10
		for v := 1; v < 10; v++ {
			b.AddEdge(base+v, base+(v/2))
		}
		b.AddEdge(base, base+9)
		b.AddEdge(base+3, base+7)
	}
	g = b.Build()
	out := runP3(t, g, ModeAlg1, 11)
	checkMIS(t, g, out)
	if out.Components != 30 || out.MaxComponent != 10 {
		t.Fatalf("components=%d maxComp=%d", out.Components, out.MaxComponent)
	}
	if out.MaxDepth >= out.Timetable.D {
		t.Fatalf("depth %d reached bound %d", out.MaxDepth, out.Timetable.D)
	}
}

func TestRandomGraphsManySeeds(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		g := graph.GNP(60, 0.06, seed+100)
		out := runP3(t, g, ModeAlg1, seed)
		checkMIS(t, g, out)
	}
	for seed := uint64(0); seed < 4; seed++ {
		g := graph.GNP(60, 0.06, seed+200)
		out := runP3(t, g, ModeAlg2, seed)
		checkMIS(t, g, out)
	}
}

func TestEnergyBound(t *testing.T) {
	g := graph.GNP(120, 0.04, 5)
	out := runP3(t, g, ModeAlg1, 9)
	checkMIS(t, g, out)
	tt := out.Timetable
	// Per iteration: a constant number of exchanges and tree ops plus
	// O(LR) coloring rounds and the node's own class window; finisher:
	// 2*GRounds + O(1) tree ops per attempt.
	periter := 40 + 6*tt.LR
	budget := tt.Iters*periter + out.MaxAttempts*(2*tt.GRounds+10) + 10
	if got := out.Res.MaxAwake(); got > budget {
		t.Fatalf("MaxAwake = %d exceeds budget %d (iters=%d LR=%d GR=%d)",
			got, budget, tt.Iters, tt.LR, tt.GRounds)
	}
}

func TestCongestCompliance(t *testing.T) {
	g := graph.GNP(100, 0.05, 6)
	out := runP3(t, g, ModeAlg1, 13)
	if out.Res.Violations != 0 {
		t.Fatalf("violations=%d bitsMax=%d (B=%d)", out.Res.Violations, out.Res.BitsMax, sim.DefaultB(g.N()))
	}
}

func TestDeterministic(t *testing.T) {
	g := graph.GNP(80, 0.05, 7)
	a := runP3(t, g, ModeAlg1, 42)
	b := runP3(t, g, ModeAlg1, 42)
	for v := range a.InSet {
		if a.InSet[v] != b.InSet[v] {
			t.Fatalf("node %d differs", v)
		}
	}
}

// TestMergedTreesHaveLogDepth checks Lemma 2.8 on sparse random graphs,
// which stand in for shattered residuals: merging ends with one spanning
// tree per component, so no node is left undecided or in a broken
// component, and the trees have depth O(log n), with the constant fixed
// at 4. Inputs: GNP(n, 5/n) at n = 500 and 2,000, both modes, seeds 1–3.
// Measured depth: 13 and 21 (≤ 1.92·log₂ n); at n = 8,000 it is 29, so
// depth rises by about 4 per unit of log₂ n and a constant below 4 would
// fail at some larger n. The check asserts no awake or round count.
func TestMergedTreesHaveLogDepth(t *testing.T) {
	const c = 4
	for _, n := range []int{500, 2000} {
		g := graph.GNP(n, 5.0/float64(n), uint64(n))
		bound := c * math.Log2(float64(n))
		for _, mode := range []Mode{ModeAlg1, ModeAlg2} {
			worst := 0
			for seed := uint64(1); seed <= 3; seed++ {
				out := runP3(t, g, mode, seed)
				if len(out.Undecided) > 0 || out.BrokenNodes > 0 {
					t.Fatalf("n=%d mode=%d seed %d: %d undecided, %d broken", n, mode, seed, len(out.Undecided), out.BrokenNodes)
				}
				if err := verify.Check(g, out.InSet); err != nil {
					t.Fatalf("n=%d mode=%d seed %d: %v", n, mode, seed, err)
				}
				if float64(out.MaxDepth) > bound {
					t.Fatalf("n=%d mode=%d seed %d: tree depth %d > %.1f (= %d log₂ n)", n, mode, seed, out.MaxDepth, bound, c)
				}
				worst = max(worst, out.MaxDepth)
			}
			t.Logf("n=%d mode=%d: max tree depth %d (%.2f·log₂ n)", n, mode, worst, float64(worst)/math.Log2(float64(n)))
		}
	}
}

// TestFinisherNeedsParallelExecutions checks why Lemma 2.7 runs K
// parallel executions of the finisher. On one large sparse component,
// GNP(300, 4/300), with the finisher's round budget cut to
// ⌈log₂(maxComp+2)⌉ + 1 and 4 attempts, one execution (K = 1) leaves
// nodes undecided on some of seeds 1–12, and the default K = Θ(log n)
// decides every node on all of them. Measured: K = 1 left 1,470 nodes
// undecided on 5 of 12 seeds; K = 4 and the default left none.
func TestFinisherNeedsParallelExecutions(t *testing.T) {
	g := graph.GNP(300, 4.0/300, 9)
	undecided := map[int]int{} // K -> seeds with undecided nodes
	for _, k := range []int{1, 0} {
		p := DefaultParams()
		p.K = k
		p.GhaffariC = 1
		p.GhaffariFloor = 1
		p.Attempts = 4
		for seed := uint64(1); seed <= 12; seed++ {
			out, err := Run(g, ModeAlg1, p, sim.Config{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if len(out.Undecided) > 0 {
				undecided[k]++
				continue
			}
			if err := verify.Check(g, out.InSet); err != nil {
				t.Fatalf("K=%d seed %d: %v", k, seed, err)
			}
		}
	}
	t.Logf("seeds with undecided nodes: K=1 %d of 12, default K %d of 12", undecided[1], undecided[0])
	if undecided[0] > 0 {
		t.Fatalf("default K left nodes undecided on %d of 12 seeds", undecided[0])
	}
	if undecided[1] == 0 {
		t.Fatal("K=1 decided every node on all 12 seeds; the input no longer stresses the finisher")
	}
}
