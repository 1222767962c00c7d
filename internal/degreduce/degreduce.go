package degreduce

import (
	"fmt"
	"math"
	"sort"

	"github.com/energymis/energymis/internal/graph"
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

// Params are the tunable constants of the phase.
type Params struct {
	RoundsC      float64 // c in R = ceil(c·log2 n) logical rounds per iteration
	TagExp       float64 // tagging probability Δ^{-TagExp}; paper: 0.5
	PreMarkExp   float64 // pre-marking probability 1/(PreMarkDamp·Δ^{PreMarkExp}); paper: 0.6
	PreMarkDamp  float64 // paper: 2
	ResampleDamp float64 // target marking probability 1/(ResampleDamp·deg~); paper: 5
	HighFactor   float64 // end-window threshold HighFactor·Δ^{PreMarkExp}; paper: 4
	NextExp      float64 // Δ' = Δ^{NextExp}; paper: 0.7
	// Stop iterating when Δ <= max(StopMin, (log2 n)^StopLogExp). The
	// paper's threshold is log^20 n, which is never reached at feasible
	// scale; the practical default keeps the same structure at log^2 n.
	StopLogExp float64
	StopMin    int
	MaxIters   int // safety cap on Corollary 3.2 iterations
}

// DefaultParams returns paper exponents with practical stopping rules.
func DefaultParams() Params {
	return Params{
		RoundsC:      2,
		TagExp:       0.5,
		PreMarkExp:   0.6,
		PreMarkDamp:  2,
		ResampleDamp: 5,
		HighFactor:   4,
		NextExp:      0.7,
		StopLogExp:   2,
		StopMin:      48,
		MaxIters:     64,
	}
}

// StopDelta returns the degree threshold below which the phase stops.
func (p Params) StopDelta(n int) int {
	log2n := math.Log2(math.Max(float64(n), 2))
	v := int(math.Pow(log2n, p.StopLogExp))
	if v < p.StopMin {
		v = p.StopMin
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
func MakePlan(n, delta int, p Params) Plan {
	if n < 2 {
		n = 2
	}
	t := int(math.Ceil(p.RoundsC * math.Log2(float64(n))))
	if t < 1 {
		t = 1
	}
	d := float64(delta)
	return Plan{
		T:           t,
		Delta:       delta,
		TagProb:     math.Min(1, math.Pow(d, -p.TagExp)),
		PreMarkProb: math.Min(1, 1/(p.PreMarkDamp*math.Pow(d, p.PreMarkExp))),
		HighThresh:  p.HighFactor * math.Pow(d, p.PreMarkExp),
	}
}

// endRound returns the engine round of end-window step s (0..3).
func (pl Plan) endRound(s int) int { return 4*pl.T + s }

// markProb returns the re-sampling probability from a tagged-neighbor
// count, via the degree estimate deg~ = Δ^{1/2}·A. Since estimates are
// compared between neighbors and the scale factor is common, comparisons
// use the raw counts.
func markProb(plan Plan, damp, pmd, pexp float64, av int) float64 {
	cap1 := 1 / (pmd * math.Pow(float64(plan.Delta), pexp))
	if av == 0 {
		return 1 // estimate zero: resample with probability min{1, ∞}
	}
	est := math.Sqrt(float64(plan.Delta)) * float64(av)
	p := (1 / (damp * est)) / cap1
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
	Orig      []int32 // original node IDs of the iteration's subgraph
}

// Outcome of the full reduction loop (Corollary 3.2).
type Outcome struct {
	InSet    []bool // independent set on the input graph
	Residual []int  // surviving nodes of the input graph
	Iters    []IterStats
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
func runIterBatch(cur *graph.Graph, plan Plan, p Params, cfg sim.Config) (iterOut, error) {
	b := NewBatchIter(cur, plan, p)
	res, err := sim.RunBatch(cur, b, cfg)
	if err != nil {
		return iterOut{}, err
	}
	return iterOut{inSet: b.inSet(), sampled: b.sampledCount(), res: res}, nil
}

// Run executes the iterated reduction on g until the degree bound falls
// under the stopping threshold. Each iteration runs the struct-of-arrays
// automaton on the batch runtime; results are byte-identical to the
// per-node specification through sim.Run (the reference in batch_test.go,
// whose iteration runner runs through the same runLoop).
func Run(g *graph.Graph, p Params, cfg sim.Config) (*Outcome, error) {
	return runLoop(g, p, cfg, runIterBatch)
}

func runLoop(g *graph.Graph, p Params, cfg sim.Config,
	runIter func(*graph.Graph, Plan, Params, sim.Config) (iterOut, error)) (*Outcome, error) {
	out := &Outcome{InSet: make([]bool, g.N())}
	stop := p.StopDelta(g.N())
	cur := g
	orig := make([]int32, g.N())
	for v := range orig {
		orig[v] = int32(v)
	}
	delta := g.MaxDegree()
	for iter := 0; delta > stop && cur.N() > 0 && iter < p.MaxIters; iter++ {
		plan := MakePlan(g.N(), delta, p)
		iterCfg := cfg
		iterCfg.Seed = cfg.Seed + uint64(iter)*0x9e3779b97f4a7c15
		it, err := runIter(cur, plan, p, iterCfg)
		if err != nil {
			return nil, fmt.Errorf("degreduce iteration %d: %w", iter, err)
		}
		st := IterStats{Delta: delta, Nodes: cur.N(), Res: it.res, Orig: orig, Sampled: it.sampled}
		inSetLocal := it.inSet
		for v, in := range inSetLocal {
			if in {
				out.InSet[orig[v]] = true
			}
		}
		restLocal := verify.Residual(cur, inSetLocal)
		sub := graph.InducedSubgraph(cur, restLocal)
		st.MeasuredD = sub.MaxDegree()

		next := int(math.Ceil(math.Pow(float64(delta), p.NextExp)))
		if next >= delta {
			next = delta - 1 // guarantee progress at small Δ
		}
		st.NextDelta = next
		if st.MeasuredD > next {
			out.BoundExceeded++
		}
		out.Iters = append(out.Iters, st)

		newOrig := make([]int32, sub.N())
		for i, pv := range sub.Orig {
			newOrig[i] = orig[pv]
		}
		cur, orig, delta = sub.Graph, newOrig, next
	}
	out.Residual = make([]int, 0, cur.N())
	for v := 0; v < cur.N(); v++ {
		out.Residual = append(out.Residual, int(orig[v]))
	}
	sort.Ints(out.Residual)
	return out, nil
}
