package phase1

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/schedule"
	"github.com/energymis/energymis/internal/sim"
	"github.com/energymis/energymis/internal/verify"
)

// Machine is the per-node specification of the phase, the reference Batch
// is held to.
type Machine struct {
	env  *sim.Env
	plan Plan

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
func NewMachines(g *graph.Graph, plan Plan) ([]sim.Machine, []*Machine) {
	machines := make([]sim.Machine, g.N())
	nodes := make([]*Machine, g.N())
	for v := range machines {
		nodes[v] = &Machine{plan: plan, rv: -1}
		machines[v] = nodes[v]
	}
	return machines, nodes
}

// markProb returns the marking probability of logical round k.
func (m *Machine) markProb(k int) float64 {
	i := k / m.plan.RoundsPerIter
	p := math.Pow(2, float64(i)) / (markDamp * float64(m.plan.MaxDegree))
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

// runWithPlanLegacy executes the phase with the per-node Machine through
// sim.Run: the reference the batch automaton is differentially tested
// against.
func runWithPlanLegacy(g *graph.Graph, plan Plan, cfg sim.Config) (*Outcome, error) {
	machines, nodes := NewMachines(g, plan)
	res, err := sim.Run(g, machines, cfg)
	if err != nil {
		return nil, fmt.Errorf("phase1: %w", err)
	}
	out := &Outcome{InSet: make([]bool, g.N()), Plan: plan, Res: res}
	for v, nm := range nodes {
		out.InSet[v] = nm.InMIS
		if nm.Sampled() {
			out.Sampled++
		}
		if nm.Spoiled() {
			out.Spoiled++
		}
	}
	out.Residual = verify.Residual(g, out.InSet)
	return out, nil
}

// TestBatchMatchesLegacy differentially tests the struct-of-arrays batch
// automaton against the per-node reference: identical marking rounds, wake
// schedules, outputs, and engine counters for every graph and seed. The
// sparse and edgeless graphs plan no iteration, so they hold the outcome
// RunWithPlan returns without running the engine to an engine run.
func TestBatchMatchesLegacy(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp-dense", graph.GNP(800, 0.1, 3)},
		{"ba-hubs", graph.BarabasiAlbert(1000, 20, 5)},
		{"clique", graph.Complete(200)},
		{"sparse", graph.GNP(500, 3.0/500, 7)}, // low Δ: the plan has 0 iterations
		{"edgeless", graph.FromEdges(50, nil)}, // MaxDegree 0: phase is skipped
	}
	for _, tc := range cases {
		plan := MakePlan(tc.g.N(), tc.g.MaxDegree())
		for seed := uint64(1); seed <= 3; seed++ {
			ref, err := runWithPlanLegacy(tc.g, plan, sim.Config{Seed: seed})
			if err != nil {
				t.Fatalf("%s seed=%d legacy: %v", tc.name, seed, err)
			}
			out, err := RunWithPlan(tc.g, plan, sim.Config{Seed: seed})
			if err != nil {
				t.Fatalf("%s seed=%d batch: %v", tc.name, seed, err)
			}
			for v := range ref.InSet {
				if out.InSet[v] != ref.InSet[v] {
					t.Fatalf("%s seed=%d: InSet[%d] = %v, legacy %v",
						tc.name, seed, v, out.InSet[v], ref.InSet[v])
				}
			}
			if out.Sampled != ref.Sampled || out.Spoiled != ref.Spoiled {
				t.Fatalf("%s seed=%d: sampled/spoiled %d/%d, legacy %d/%d",
					tc.name, seed, out.Sampled, out.Spoiled, ref.Sampled, ref.Spoiled)
			}
			if !slices.Equal(out.Residual, ref.Residual) {
				t.Fatalf("%s seed=%d: residual %v, legacy %v",
					tc.name, seed, out.Residual, ref.Residual)
			}
			r, rr := out.Res, ref.Res
			if r.Rounds != rr.Rounds || r.MsgsSent != rr.MsgsSent ||
				r.MsgsDropped != rr.MsgsDropped || r.BitsTotal != rr.BitsTotal ||
				r.BitsMax != rr.BitsMax || r.Violations != rr.Violations {
				t.Fatalf("%s seed=%d: counters differ\n legacy: %+v\n batch:  %+v",
					tc.name, seed, rr, r)
			}
			for v := range r.Awake {
				if r.Awake[v] != rr.Awake[v] {
					t.Fatalf("%s seed=%d: Awake[%d] = %d, legacy %d",
						tc.name, seed, v, r.Awake[v], rr.Awake[v])
				}
			}
		}
	}
}
