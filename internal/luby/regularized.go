package luby

import (
	"fmt"
	"math"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/sim"
)

// Regularized Luby is the slowed-down variant the paper's Section 2.1
// builds on, run here in its basic full-MIS form (without the one-shot
// marking restriction of Phase I): iteration i marks every undecided node
// with probability 2^i/(damp·Δ) for c·log n rounds, so that after
// iteration i the maximum undecided degree is Δ/2^i w.h.p.; after
// ⌈log Δ⌉ iterations all remaining nodes are isolated and join. Nodes may
// be marked many times, so every undecided node must stay awake —
// the energy blow-up that motivates Phase I's modifications.

// The constants of the basic regularized Luby: the paper's structure with
// a practical round multiplier.
const (
	regRoundsPerIterC = 1  // c in "⌈c·log2 n⌉ rounds per iteration"
	regMarkDamp       = 10 // the 10 in 2^i/(10Δ)
)

// regMachine is the per-node automaton. Logical round k occupies engine
// rounds 2k (mark + conflict) and 2k+1 (join notification).
type regMachine struct {
	env  *sim.Env
	rpi  int // rounds per iteration
	T    int // total logical rounds
	dMax int

	marked  bool
	decided bool
	InMIS   bool
}

var _ sim.Machine = (*regMachine)(nil)

func (m *regMachine) Init(env *sim.Env) int {
	m.env = env
	return 0
}

func (m *regMachine) prob(k int) float64 {
	i := k / m.rpi
	p := math.Pow(2, float64(i)) / (regMarkDamp * float64(m.dMax))
	if p > 1 {
		p = 1
	}
	return p
}

func (m *regMachine) Compose(round int, out *sim.Outbox) {
	k, sub := round/2, round%2
	if m.decided {
		return
	}
	if k >= m.T {
		// Epilogue (w.h.p. unreached): greedy by identifier among the
		// leftover undecided nodes, so the output is always an MIS.
		if sub == 0 {
			out.Broadcast(sim.Msg{Kind: kindMark, A: uint64(m.env.Node), Bits: int32(bitsFor(m.env.N))})
		} else if m.marked {
			m.InMIS = true
			m.decided = true
			out.Broadcast(sim.Msg{Kind: kindJoin, Bits: 1})
		}
		return
	}
	if sub == 0 {
		m.marked = m.env.Rand.Bernoulli(m.prob(k))
		if m.marked {
			out.Broadcast(sim.Msg{Kind: kindMark, Bits: 1})
		}
		return
	}
	if m.marked {
		// No marked neighbor seen: join and announce.
		m.InMIS = true
		m.decided = true
		out.Broadcast(sim.Msg{Kind: kindJoin, Bits: 1})
	}
}

func (m *regMachine) Deliver(round int, inbox []sim.Msg) int {
	k, sub := round/2, round%2
	if sub == 0 {
		if k >= m.T {
			// Epilogue: join next sub-round iff no undecided neighbor has
			// a larger identifier.
			m.marked = true
			for _, msg := range inbox {
				if msg.Kind == kindMark && int(msg.A) > m.env.Node {
					m.marked = false
					break
				}
			}
		} else if m.marked {
			for _, msg := range inbox {
				if msg.Kind == kindMark {
					m.marked = false
					break
				}
			}
		}
		return round + 1
	}
	for _, msg := range inbox {
		if msg.Kind == kindJoin && !m.InMIS {
			m.decided = true
		}
	}
	if m.decided {
		return sim.Never
	}
	return round + 1
}

// RunRegularized executes basic regularized Luby on g.
func RunRegularized(g *graph.Graph, cfg sim.Config) ([]bool, *sim.Result, error) {
	n := g.N()
	dMax := g.MaxDegree()
	if dMax < 1 {
		dMax = 1
	}
	rpi := int(math.Ceil(regRoundsPerIterC * math.Log2(math.Max(2, float64(n)))))
	iters := int(math.Ceil(math.Log2(float64(dMax)))) + 1
	if iters < 1 {
		iters = 1
	}
	machines := make([]sim.Machine, n)
	nodes := make([]*regMachine, n)
	for v := range machines {
		nodes[v] = &regMachine{rpi: rpi, T: iters * rpi, dMax: dMax}
		machines[v] = nodes[v]
	}
	res, err := sim.Run(g, machines, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("luby regularized: %w", err)
	}
	inSet := make([]bool, n)
	for v, nm := range nodes {
		inSet[v] = nm.InMIS
	}
	return inSet, res, nil
}
