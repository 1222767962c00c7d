package phase1

import (
	"fmt"
	"math"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/sim"
)

// Message kinds.
const (
	kindMark  = 21
	kindJoin  = 22
	kindInMIS = 23
)

// The phase's constants (Section 2.1).
const (
	// roundsPerIterC is c in "R = ⌈c·log₂ n⌉ rounds per iteration", a
	// practical multiplier of the paper's Θ(log n).
	roundsPerIterC = 2
	// markDamp is the damping constant in the base marking probability
	// 2^i/(markDamp·Δ). The paper uses 10.
	markDamp = 10
	// iterTrim is a in "I = ⌈log₂ Δ⌉ − a·⌈log₂ log₂ n⌉". The paper uses
	// a = 2, which also yields the O(n/log n) sampled-node bound of
	// Section 4.1. I is floored at 0: the phase is skipped when Δ is
	// already polylogarithmic.
	iterTrim = 2
)

// Plan describes the precomputed timetable of a phase run.
type Plan struct {
	Iterations    int
	RoundsPerIter int
	T             int // total logical rounds = Iterations * RoundsPerIter
	MaxDegree     int // the Δ the probabilities are based on
}

// PlanExplicit builds a timetable directly from an iteration count and a
// per-iteration round count. Section 4's Lemma 4.2 uses this to run the
// same one-shot-marking algorithm with Θ(log log n) rounds per iteration,
// stopping at a poly(log log n) degree target.
func PlanExplicit(iters, roundsPerIter, maxDeg int) Plan {
	if iters < 0 {
		iters = 0
	}
	if roundsPerIter < 1 {
		roundsPerIter = 1
	}
	return Plan{Iterations: iters, RoundsPerIter: roundsPerIter, T: iters * roundsPerIter, MaxDegree: maxDeg}
}

// RunWithPlan executes the phase on g under an explicit timetable. It runs
// the struct-of-arrays automaton on the batch runtime; results are
// byte-identical to the per-node specification through sim.Run (the
// reference in batch_test.go). An empty timetable (T = 0) marks no node,
// so it runs no engine: every node is residual, none is sampled, and the
// Result has zero rounds, as the engine would report.
func RunWithPlan(g *graph.Graph, plan Plan, cfg sim.Config) (*Outcome, error) {
	if plan.T == 0 {
		n := g.N()
		residual := make([]int, n)
		for v := range residual {
			residual[v] = v
		}
		res := &sim.Result{Awake: make([]int32, n)}
		return &Outcome{InSet: make([]bool, n), Residual: residual, Plan: plan, Res: res}, nil
	}
	b := NewBatch(g, plan)
	res, err := sim.RunBatch(g, b, cfg)
	if err != nil {
		return nil, fmt.Errorf("phase1: %w", err)
	}
	return b.outcome(res), nil
}

// MakePlan computes the timetable for an n-node graph with maximum degree
// maxDeg.
func MakePlan(n, maxDeg int) Plan {
	if n < 2 {
		n = 2
	}
	log2n := math.Log2(float64(n))
	loglog := int(math.Ceil(math.Log2(math.Max(log2n, 2))))
	iters := 0
	if maxDeg > 1 {
		iters = int(math.Ceil(math.Log2(float64(maxDeg)))) - iterTrim*loglog
	}
	iters = max(iters, 0)
	r := int(math.Ceil(roundsPerIterC * log2n))
	if r < 1 {
		r = 1
	}
	return Plan{Iterations: iters, RoundsPerIter: r, T: iters * r, MaxDegree: maxDeg}
}

// Outcome of a phase run.
type Outcome struct {
	InSet    []bool // the independent set found
	Residual []int  // nodes not in the set and not dominated by it
	Sampled  int    // nodes that were marked (awake at all)
	Spoiled  int    // marked nodes that failed to join
	Plan     Plan
	Res      *sim.Result
}

// Run executes the phase on g.
func Run(g *graph.Graph, cfg sim.Config) (*Outcome, error) {
	return RunWithPlan(g, MakePlan(g.N(), g.MaxDegree()), cfg)
}
