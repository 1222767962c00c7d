package phase1

import (
	"fmt"
	"math"
	"sort"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/schedule"
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
// byte-identical to the per-node Machines through sim.Run (the reference,
// driven from batch_test.go).
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

// Machine is the per-node automaton of the phase.
type Machine struct {
	env  *sim.Env
	plan Plan
	damp float64

	// Pre-sampled state.
	rv   int   // logical round of the node's one-shot marking; -1 = never
	wake []int // sorted engine rounds to be awake, derived from S_{rv}
	wi   int   // index of the next wake round

	// Protocol state.
	conflict bool // a cohort neighbor was marked in the same round
	joined   bool
	inactive bool // a neighbor joined the MIS
	spoiled  bool // marked but did not join

	InMIS bool
}

var _ sim.Machine = (*Machine)(nil)

// NewMachines builds the automata for one phase run over g.
func NewMachines(g *graph.Graph, plan Plan, p Params) ([]sim.Machine, []*Machine) {
	machines := make([]sim.Machine, g.N())
	nodes := make([]*Machine, g.N())
	for v := range machines {
		nodes[v] = &Machine{plan: plan, damp: p.MarkDamp, rv: -1}
		machines[v] = nodes[v]
	}
	return machines, nodes
}

// markProb returns the marking probability of logical round k.
func (m *Machine) markProb(k int) float64 {
	i := k / m.plan.RoundsPerIter
	p := math.Pow(2, float64(i)) / (m.damp * float64(m.plan.MaxDegree))
	if p > 1 {
		p = 1
	}
	return p
}

// Init implements sim.Machine: pre-sample the one-shot marking round and
// derive the awake plan.
func (m *Machine) Init(env *sim.Env) int {
	m.env = env
	if m.plan.T == 0 || m.plan.MaxDegree == 0 {
		return sim.Never
	}
	for k := 0; k < m.plan.T; k++ {
		if env.Rand.Bernoulli(m.markProb(k)) {
			m.rv = k
			break
		}
	}
	if m.rv < 0 {
		return sim.Never // never marked: sleep through the whole phase
	}
	seen := make(map[int]bool)
	for _, l := range schedule.Set(m.plan.T, m.rv) {
		if l == m.rv {
			seen[3*l] = true
			seen[3*l+1] = true
		}
		seen[3*l+2] = true
	}
	m.wake = make([]int, 0, len(seen))
	for r := range seen {
		m.wake = append(m.wake, r)
	}
	sort.Ints(m.wake)
	m.wi = 0
	return m.wake[0]
}

// Compose implements sim.Machine.
func (m *Machine) Compose(round int, out *sim.Outbox) {
	l, sub := round/3, round%3
	switch sub {
	case 0:
		if l == m.rv && !m.inactive {
			out.Broadcast(sim.Msg{Kind: kindMark, Bits: 1})
		}
	case 1:
		if l == m.rv && !m.inactive && !m.conflict {
			// Lone marked node in its cohort neighborhood: join.
			m.joined = true
			m.InMIS = true
			out.Broadcast(sim.Msg{Kind: kindJoin, Bits: 1})
		}
	case 2:
		if m.joined {
			out.Broadcast(sim.Msg{Kind: kindInMIS, Bits: 1})
		}
	}
}

// Deliver implements sim.Machine.
func (m *Machine) Deliver(round int, inbox []sim.Msg) int {
	l, sub := round/3, round%3
	switch sub {
	case 0:
		if l == m.rv {
			for _, msg := range inbox {
				if msg.Kind == kindMark {
					m.conflict = true
					break
				}
			}
		}
	case 1:
		if l == m.rv {
			for _, msg := range inbox {
				if msg.Kind == kindJoin && !m.joined {
					m.inactive = true
				}
			}
			if !m.joined && !m.inactive {
				m.spoiled = true
			}
			if m.conflict && !m.joined {
				m.spoiled = true
			}
		}
	case 2:
		for _, msg := range inbox {
			if msg.Kind == kindInMIS && l < m.rv && !m.joined {
				m.inactive = true
			}
		}
	}
	m.wi++
	if m.wi >= len(m.wake) {
		return sim.Never
	}
	return m.wake[m.wi]
}

// Spoiled reports whether the node was marked but failed to join.
func (m *Machine) Spoiled() bool { return m.spoiled }

// Sampled reports whether the node was ever marked.
func (m *Machine) Sampled() bool { return m.rv >= 0 }

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
