package luby

import (
	"testing"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/sim"
	"github.com/energymis/energymis/internal/verify"
)

func TestRegularizedComputesMIS(t *testing.T) {
	cases := []*graph.Graph{
		graph.GNP(600, 0.02, 1),
		graph.GNP(400, 0.2, 2),
		graph.Complete(100),
		graph.Star(200),
		graph.Cycle(99),
		graph.RandomTree(300, 3),
		graph.NewBuilder(30).Build(),
		graph.Path(1),
	}
	for gi, g := range cases {
		for seed := uint64(0); seed < 3; seed++ {
			inSet, _, err := RunRegularized(g, sim.Config{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.Check(g, inSet); err != nil {
				t.Fatalf("graph %d seed %d: %v", gi, seed, err)
			}
		}
	}
}

func TestRegularizedEnergyIsHigh(t *testing.T) {
	// The baseline's point: without one-shot marking, undecided
	// nodes stay awake through the iteration schedule, so energy tracks
	// Θ(log Δ · log n) rather than Phase I's O(log log n).
	g := graph.GNP(1500, 0.3, 5)
	inSet, res, err := RunRegularized(g, sim.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Check(g, inSet); err != nil {
		t.Fatal(err)
	}
	if res.MaxAwake() < 20 {
		t.Fatalf("regularized Luby MaxAwake = %d; expected the always-awake blow-up", res.MaxAwake())
	}
}

func TestRegularizedDeterministic(t *testing.T) {
	g := graph.GNP(300, 0.05, 7)
	a, _, err := RunRegularized(g, sim.Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := RunRegularized(g, sim.Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("node %d differs", v)
		}
	}
}

func TestRegularizedCongest(t *testing.T) {
	g := graph.GNP(800, 0.1, 11)
	_, res, err := RunRegularized(g, sim.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("violations: %d (bitsMax=%d)", res.Violations, res.BitsMax)
	}
}
