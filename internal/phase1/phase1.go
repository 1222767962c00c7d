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

// Params are the tunable constants of the phase. The zero value is not
// meaningful; start from DefaultParams.
type Params struct {
	// RoundsPerIterC is c in "R = ceil(c·log2 n) rounds per iteration".
	RoundsPerIterC float64
	// MarkDamp is the damping constant in the base marking probability
	// 2^i/(MarkDamp·Δ). The paper uses 10.
	MarkDamp float64
	// IterTrim is a in "I = ceil(log2 Δ) − a·ceil(log2 log2 n)". The paper
	// uses a = 2, which also yields the O(n/log n) sampled-node bound of
	// Section 4.1.
	IterTrim int
	// MinIterations floors I (0 means the phase may be skipped entirely
	// when Δ is already polylogarithmic).
	MinIterations int
}

// DefaultParams returns the paper-faithful constants with a practical
// rounds-per-iteration multiplier.
func DefaultParams() Params {
	return Params{RoundsPerIterC: 2, MarkDamp: 10, IterTrim: 2}
}

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
// reference in batch_test.go).
func RunWithPlan(g *graph.Graph, plan Plan, p Params, cfg sim.Config) (*Outcome, error) {
	b := NewBatch(g, plan, p)
	res, err := sim.RunBatch(g, b, cfg)
	if err != nil {
		return nil, fmt.Errorf("phase1: %w", err)
	}
	return b.outcome(res), nil
}

// MakePlan computes the timetable for an n-node graph with maximum degree
// maxDeg.
func MakePlan(n, maxDeg int, p Params) Plan {
	if n < 2 {
		n = 2
	}
	log2n := math.Log2(float64(n))
	loglog := int(math.Ceil(math.Log2(math.Max(log2n, 2))))
	iters := 0
	if maxDeg > 1 {
		iters = int(math.Ceil(math.Log2(float64(maxDeg)))) - p.IterTrim*loglog
	}
	if iters < p.MinIterations {
		iters = p.MinIterations
	}
	r := int(math.Ceil(p.RoundsPerIterC * log2n))
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
func Run(g *graph.Graph, p Params, cfg sim.Config) (*Outcome, error) {
	return RunWithPlan(g, MakePlan(g.N(), g.MaxDegree(), p), p, cfg)
}
