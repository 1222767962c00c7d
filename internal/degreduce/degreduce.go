package degreduce

import (
	"fmt"
	"math"
	"sort"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/schedule"
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

// Machine is the per-node automaton of one iteration.
type Machine struct {
	env  *sim.Env
	plan Plan
	damp float64 // ResampleDamp
	pmd  float64 // PreMarkDamp
	pexp float64 // PreMarkExp

	rv        int // first sampled logical round; -1 = never sampled
	tagged    bool
	premarked bool
	wake      []int
	wi        int

	av       int  // tagged-neighbor count observed in r_v
	marked   bool // survived re-sampling
	unmarked bool // lost the estimate comparison

	joined   bool
	inactive bool

	remDeg int  // end window: active non-spoiled neighbor count
	high   bool // end window: above threshold

	InMIS bool
}

var _ sim.Machine = (*Machine)(nil)

// Init implements sim.Machine.
func (m *Machine) Init(env *sim.Env) int {
	m.env = env
	tA := env.Rand.FirstSuccess(m.plan.TagProb, m.plan.T)
	tB := env.Rand.FirstSuccess(m.plan.PreMarkProb, m.plan.T)
	m.rv = -1
	switch {
	case tA >= 0 && (tB < 0 || tA < tB):
		m.rv, m.tagged = tA, true
	case tB >= 0 && (tA < 0 || tB < tA):
		m.rv, m.premarked = tB, true
	case tA >= 0 && tA == tB:
		m.rv, m.tagged, m.premarked = tA, true, true
	}
	wake := make(map[int]bool)
	if m.rv >= 0 {
		for _, l := range schedule.Set(m.plan.T, m.rv) {
			wake[4*l+3] = true
		}
		wake[4*m.rv] = true
		wake[4*m.rv+1] = true
		wake[4*m.rv+2] = true
	}
	// Every node participates in the end window.
	for s := 0; s < 4; s++ {
		wake[m.plan.endRound(s)] = true
	}
	m.wake = make([]int, 0, len(wake))
	for r := range wake {
		m.wake = append(m.wake, r)
	}
	sort.Ints(m.wake)
	m.wi = 0
	return m.wake[0]
}

// markProbFromCount returns the re-sampling probability from a
// tagged-neighbor count, via the degree estimate deg~ = Δ^{1/2}·A. Since
// estimates are compared between neighbors and the scale factor is common,
// comparisons use the raw counts.
func (m *Machine) markProbFromCount(av int) float64 {
	return markProb(m.plan, m.damp, m.pmd, m.pexp, av)
}

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

// Compose implements sim.Machine.
func (m *Machine) Compose(round int, out *sim.Outbox) {
	if round >= 4*m.plan.T {
		m.composeEnd(round-4*m.plan.T, out)
		return
	}
	l, sub := round/4, round%4
	switch sub {
	case 0:
		if l == m.rv && m.tagged && !m.inactive {
			out.Broadcast(sim.Msg{Kind: kindTag, Bits: 1})
		}
	case 1:
		if l == m.rv && m.premarked && !m.inactive {
			if m.env.Rand.Bernoulli(m.markProbFromCount(m.av)) {
				m.marked = true
				out.Broadcast(sim.Msg{
					Kind: kindMarked,
					A:    uint64(m.av),
					Bits: int32(1 + bitsFor(m.env.N)),
				})
			}
		}
	case 2:
		if l == m.rv && m.marked && !m.unmarked && !m.inactive {
			m.joined = true
			m.InMIS = true
			out.Broadcast(sim.Msg{Kind: kindJoin, Bits: 1})
		}
	case 3:
		if m.joined {
			out.Broadcast(sim.Msg{Kind: kindInMIS, Bits: 1})
		}
	}
}

func (m *Machine) composeEnd(s int, out *sim.Outbox) {
	switch s {
	case 0:
		if m.joined {
			out.Broadcast(sim.Msg{Kind: kindInMIS, Bits: 1})
		}
	case 1:
		// Active non-spoiled nodes announce themselves for the remaining-
		// degree count. Spoiled = sampled but did not join.
		if !m.inactive && !m.joined && m.rv < 0 {
			out.Broadcast(sim.Msg{Kind: kindAlive, Bits: 1})
		}
	case 2:
		if !m.inactive && !m.joined && float64(m.remDeg) > m.plan.HighThresh {
			m.high = true
			out.Broadcast(sim.Msg{Kind: kindHigh, Bits: 1})
		}
	case 3:
		if m.high {
			m.joined = true
			m.InMIS = true
			out.Broadcast(sim.Msg{Kind: kindHiJoin, Bits: 1})
		}
	}
}

// Deliver implements sim.Machine.
func (m *Machine) Deliver(round int, inbox []sim.Msg) int {
	if round >= 4*m.plan.T {
		m.deliverEnd(round-4*m.plan.T, inbox)
	} else {
		m.deliverMain(round, inbox)
	}
	m.wi++
	if m.wi >= len(m.wake) {
		return sim.Never
	}
	return m.wake[m.wi]
}

func (m *Machine) deliverMain(round int, inbox []sim.Msg) {
	l, sub := round/4, round%4
	switch sub {
	case 0:
		if l == m.rv && !m.inactive {
			for _, msg := range inbox {
				if msg.Kind == kindTag {
					m.av++
				}
			}
		}
	case 1:
		if l == m.rv && m.marked {
			for _, msg := range inbox {
				// Unmark when a marked neighbor's estimate is at least as
				// large ("removes its marking if deg~(v) <= deg~(u)").
				if msg.Kind == kindMarked && int(msg.A) >= m.av {
					m.unmarked = true
					break
				}
			}
		}
	case 2:
		if l == m.rv && !m.joined {
			for _, msg := range inbox {
				if msg.Kind == kindJoin {
					m.inactive = true
					break
				}
			}
		}
	case 3:
		if l < m.rv && !m.joined {
			for _, msg := range inbox {
				if msg.Kind == kindInMIS {
					m.inactive = true
					break
				}
			}
		}
	}
}

func (m *Machine) deliverEnd(s int, inbox []sim.Msg) {
	switch s {
	case 0:
		if !m.joined {
			for _, msg := range inbox {
				if msg.Kind == kindInMIS {
					m.inactive = true
					break
				}
			}
		}
	case 1:
		if !m.inactive && !m.joined {
			for _, msg := range inbox {
				if msg.Kind == kindAlive {
					m.remDeg++
				}
			}
		}
	case 2:
		if m.high {
			for _, msg := range inbox {
				if msg.Kind == kindHigh {
					// A high neighbor exists: do not join.
					m.high = false
					break
				}
			}
		}
	case 3:
		if !m.joined {
			for _, msg := range inbox {
				if msg.Kind == kindHiJoin {
					m.inactive = true
					break
				}
			}
		}
	}
}

// Sampled reports whether the node was tagged or pre-marked.
func (m *Machine) Sampled() bool { return m.rv >= 0 }

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
// per-node machines through sim.Run (the reference, whose iteration
// runner lives in batch_test.go and runs through the same runLoop).
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
