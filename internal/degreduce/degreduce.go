package degreduce

import (
	"fmt"
	"math"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/pipeline"
	"github.com/energymis/energymis/internal/sim"
	"github.com/energymis/energymis/internal/verify"
)

// Message kinds.
const (
	kindTag    = 31
	kindMarked = 32 // A = A_v, the sender's tagged-neighbor count
	kindJoin   = 33
	kindInMIS  = 34
	kindAlive  = 35 // end window: sender is active and non-spoiled
	kindHigh   = 36 // end window: sender's remaining degree exceeds the threshold
	kindHiJoin = 37 // end window: high-degree node joins
)

// The constants of one iteration (Section 3.1) and of the loop
// (Corollary 3.2).
const (
	roundsC      = 2   // c in T = ⌈c·log₂ n⌉ logical rounds per iteration
	tagExp       = 0.5 // tagging probability Δ^{-tagExp}; the paper's 1/2
	preMarkExp   = 0.6 // pre-marking probability 1/(preMarkDamp·Δ^{preMarkExp}); the paper's 0.6
	preMarkDamp  = 2   // the paper's 2
	resampleDamp = 5   // target marking probability 1/(resampleDamp·deg~); the paper's 5
	highFactor   = 4   // end-window threshold highFactor·Δ^{preMarkExp}; the paper's 4
	nextExp      = 0.7 // Δ' = Δ^{nextExp}; the paper's 0.7 (Lemma 3.1)
	// The loop stops when Δ <= max(stopMin, (log₂ n)^stopLogExp). The
	// paper's threshold is log^20 n, which is never reached at feasible
	// scale; log² n keeps the same structure.
	stopLogExp = 2
	stopMin    = 48
	maxIters   = 64 // safety cap on Corollary 3.2 iterations
)

// stopDelta returns the degree bound at or below which the loop stops on
// an n-node graph.
func stopDelta(n int) int {
	log2n := math.Log2(math.Max(float64(n), 2))
	v := int(math.Pow(log2n, stopLogExp))
	if v < stopMin {
		v = stopMin
	}
	return v
}

// Plan is the timetable of one iteration.
type Plan struct {
	T     int // logical rounds (4 engine sub-rounds each)
	Delta int // degree bound the probabilities use
	// Derived probabilities and thresholds.
	TagProb     float64
	PreMarkProb float64
	HighThresh  float64
}

// MakePlan computes the timetable of one iteration for an n-node graph
// with degree bound delta.
func MakePlan(n, delta int) Plan {
	if n < 2 {
		n = 2
	}
	t := int(math.Ceil(roundsC * math.Log2(float64(n))))
	if t < 1 {
		t = 1
	}
	d := float64(delta)
	return Plan{
		T:           t,
		Delta:       delta,
		TagProb:     math.Min(1, math.Pow(d, -tagExp)),
		PreMarkProb: math.Min(1, 1/(preMarkDamp*math.Pow(d, preMarkExp))),
		HighThresh:  highFactor * math.Pow(d, preMarkExp),
	}
}

// endRound returns the engine round of end-window step s (0..3).
func (pl Plan) endRound(s int) int { return 4*pl.T + s }

// markProb returns the re-sampling probability from a tagged-neighbor
// count, via the degree estimate deg~ = Δ^{1/2}·A. Since estimates are
// compared between neighbors and the scale factor is common, comparisons
// use the raw counts.
func markProb(plan Plan, av int) float64 {
	cap1 := 1 / (preMarkDamp * math.Pow(float64(plan.Delta), preMarkExp))
	if av == 0 {
		return 1 // estimate zero: resample with probability min{1, ∞}
	}
	est := math.Sqrt(float64(plan.Delta)) * float64(av)
	p := (1 / (resampleDamp * est)) / cap1
	// The pre-marking already applied probability cap1; re-sampling with
	// min{1, target/cap1} yields overall min{cap1, target}.
	if p > 1 {
		p = 1
	}
	return p
}

func bitsFor(n int) int {
	b := 1
	for p := 1; p < n; p <<= 1 {
		b++
	}
	return b
}

// IterStats records one iteration of the reduction loop.
type IterStats struct {
	Delta     int // the bound the iteration assumed
	NextDelta int // the bound handed to the next iteration
	MeasuredD int // measured residual max degree after the iteration
	Nodes     int // nodes entering the iteration
	Sampled   int // nodes that woke during the main window
	Res       *sim.Result
}

// Outcome of the full reduction loop (Corollary 3.2). The independent set
// and the residual are the pipeline's.
type Outcome struct {
	Iters []IterStats
	// BoundExceeded counts iterations whose measured residual degree
	// exceeded the Δ^0.7 bound (a w.h.p. failure of Lemma 3.1).
	BoundExceeded int
}

// iterOut is one iteration's raw output, independent of engine path.
type iterOut struct {
	inSet   []bool
	sampled int
	res     *sim.Result
}

// runIterBatch executes one iteration with the struct-of-arrays automaton
// on the batch runtime.
func runIterBatch(cur *graph.Graph, plan Plan, cfg sim.Config) (iterOut, error) {
	b := NewBatchIter(cur, plan)
	res, err := sim.RunBatch(cur, b, cfg)
	if err != nil {
		return iterOut{}, err
	}
	return iterOut{inSet: b.inSet(), sampled: b.sampledCount(), res: res}, nil
}

// Run executes the iterated reduction on pl's input graph until the degree
// bound falls under the stopping threshold. Each iteration runs the
// struct-of-arrays automaton on the batch runtime; results are
// byte-identical to the per-node specification through sim.Run (the
// reference in batch_test.go, whose iteration runner runs through the
// same runLoop).
func Run(pl *pipeline.Pipeline, cfg sim.Config) (*Outcome, error) {
	return runLoop(pl, stopDelta(pl.Graph().N()), cfg, runIterBatch)
}

// runLoop iterates runIter while the degree bound exceeds stop. It records
// each iteration in pl as the iteration ends: its joiners, the residual it
// leaves and its span "phase-i.<k>", so the next iteration runs on
// pl.Subgraph(). With no iteration, every node stays in the residual.
func runLoop(pl *pipeline.Pipeline, stop int, cfg sim.Config,
	runIter func(*graph.Graph, Plan, sim.Config) (iterOut, error)) (*Outcome, error) {
	out := &Outcome{}
	g := pl.Graph()
	cur, orig := g, []int32(nil) // nil: the first iteration runs on g
	delta := g.MaxDegree()
	for iter := 0; delta > stop && cur.N() > 0 && iter < maxIters; iter++ {
		plan := MakePlan(g.N(), delta)
		iterCfg := cfg
		iterCfg.Seed = cfg.Seed + uint64(iter)*0x9e3779b97f4a7c15
		it, err := runIter(cur, plan, iterCfg)
		if err != nil {
			return nil, fmt.Errorf("degreduce iteration %d: %w", iter, err)
		}
		pl.Join(it.inSet, orig)
		pl.SetResidual(verify.Residual(cur, it.inSet), orig)
		sub := pl.Subgraph()
		pl.Record(fmt.Sprintf("phase-i.%d", iter), it.res, orig)

		next := int(math.Ceil(math.Pow(float64(delta), nextExp)))
		if next >= delta {
			next = delta - 1 // guarantee progress at small Δ
		}
		st := IterStats{Delta: delta, NextDelta: next, MeasuredD: sub.MaxDegree(),
			Nodes: cur.N(), Sampled: it.sampled, Res: it.res}
		if st.MeasuredD > next {
			out.BoundExceeded++
		}
		out.Iters = append(out.Iters, st)
		cur, orig, delta = sub.Graph, sub.Orig, next
	}
	if len(out.Iters) == 0 {
		all := make([]int, g.N())
		for v := range all {
			all[v] = v
		}
		pl.SetResidual(all, nil)
	}
	return out, nil
}
