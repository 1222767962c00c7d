package phase1

import (
	"math"
	"testing"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/sim"
)

// TestInvariantsAB reproduces the inductive invariants of Lemmas 2.2–2.4
// at the end of the phase: every active node has
//
//	A(T): at most O(T·log n) active and spoiled neighbors, and
//	B(T): at most Δ/2^T ·O(1) active non-spoiled neighbors,
//
// where T is the number of iterations. Together they give Lemma 2.1's
// O(log² n) residual degree.
func TestInvariantsAB(t *testing.T) {
	g := graph.GNP(2000, 0.4, 3)
	plan := MakePlan(g.N(), g.MaxDegree())
	if plan.Iterations == 0 {
		t.Fatal("test graph too sparse for Phase I")
	}
	machines, nodes := NewMachines(g, plan)
	if _, err := sim.Run(g, machines, sim.Config{Seed: 1}); err != nil {
		t.Fatal(err)
	}

	// Post-run classification: active = not in MIS and not dominated.
	active := make([]bool, g.N())
	for v := range nodes {
		active[v] = true
	}
	for v, nm := range nodes {
		if nm.InMIS {
			active[v] = false
			for _, u := range g.Neighbors(v) {
				active[u] = false
			}
		}
	}

	logn := math.Log2(float64(g.N()))
	boundA := 8 * float64(plan.Iterations+1) * logn * float64(plan.RoundsPerIter) / roundsPerIterC
	// B(T): Δ/2^Iterations with constant slack.
	boundB := 8 * float64(plan.MaxDegree) / math.Pow(2, float64(plan.Iterations))

	worstA, worstB := 0, 0
	for v := range nodes {
		if !active[v] {
			continue
		}
		spoiled, fresh := 0, 0
		for _, u := range g.Neighbors(v) {
			if !active[u] {
				continue
			}
			if nodes[u].Spoiled() {
				spoiled++
			} else {
				fresh++
			}
		}
		if spoiled > worstA {
			worstA = spoiled
		}
		if fresh > worstB {
			worstB = fresh
		}
	}
	if float64(worstA) > boundA {
		t.Errorf("invariant A violated: %d active+spoiled neighbors > bound %.0f", worstA, boundA)
	}
	if float64(worstB) > boundB {
		t.Errorf("invariant B violated: %d active non-spoiled neighbors > bound %.0f", worstB, boundB)
	}
	t.Logf("A: worst %d (bound %.0f); B: worst %d (bound %.0f); iters=%d Δ=%d",
		worstA, boundA, worstB, boundB, plan.Iterations, plan.MaxDegree)
}

// TestSection41SampledBound reproduces the Section 4.1 computation: with
// iterTrim = 2, the per-node probability of ever being marked is
// O(1/log n), so the expected sampled count is O(n/log n).
func TestSection41SampledBound(t *testing.T) {
	g := graph.GNP(4000, 0.3, 5)
	out, err := Run(g, sim.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if out.Plan.Iterations == 0 {
		t.Skip("phase skipped")
	}
	logn := math.Log2(float64(g.N()))
	bound := 20 * float64(g.N()) / logn
	if float64(out.Sampled) > bound {
		t.Fatalf("sampled %d > 20n/log n = %.0f", out.Sampled, bound)
	}
	t.Logf("sampled %d of %d (bound %.0f)", out.Sampled, g.N(), bound)
}

// TestMarkProbSchedule checks the per-round marking probabilities follow
// the paper's 2^i/(10·Δ) schedule with the cap at 1.
func TestMarkProbSchedule(t *testing.T) {
	plan := Plan{Iterations: 40, RoundsPerIter: 4, T: 160, MaxDegree: 64}
	if got := markProbAt(plan, 0); math.Abs(got-1.0/640) > 1e-12 {
		t.Fatalf("markProb(0) = %v", got)
	}
	if got := markProbAt(plan, 4); math.Abs(got-2.0/640) > 1e-12 {
		t.Fatalf("markProb(iter1) = %v", got)
	}
	// Deep iterations saturate at probability 1.
	if got := markProbAt(plan, 159); got != 1 {
		t.Fatalf("markProb cap = %v", got)
	}
}
