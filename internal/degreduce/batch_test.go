package degreduce

import (
	"sort"
	"testing"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/pipeline"
	"github.com/energymis/energymis/internal/schedule"
	"github.com/energymis/energymis/internal/sim"
)

// Machine is the per-node specification of one iteration, the reference
// Batch is held to.
type Machine struct {
	env  *sim.Env
	plan Plan

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
// tagged-neighbor count (see markProb).
func (m *Machine) markProbFromCount(av int) float64 {
	return markProb(m.plan, av)
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

// newMachines builds the per-node automata of one iteration over g.
func newMachines(g *graph.Graph, plan Plan) ([]sim.Machine, []*Machine) {
	machines := make([]sim.Machine, g.N())
	nodes := make([]*Machine, g.N())
	for v := range machines {
		nodes[v] = &Machine{plan: plan, rv: -1}
		machines[v] = nodes[v]
	}
	return machines, nodes
}

// runIterLegacy executes one iteration with per-node machines through
// sim.Run.
func runIterLegacy(cur *graph.Graph, plan Plan, cfg sim.Config) (iterOut, error) {
	machines, nodes := newMachines(cur, plan)
	res, err := sim.Run(cur, machines, cfg)
	if err != nil {
		return iterOut{}, err
	}
	it := iterOut{inSet: make([]bool, cur.N()), res: res}
	for v, nm := range nodes {
		it.inSet[v] = nm.InMIS
		if nm.Sampled() {
			it.sampled++
		}
	}
	return it, nil
}

// runLegacy executes the reduction with per-node machines through
// sim.Run: the reference the batch path is differentially tested against.
func runLegacy(pl *pipeline.Pipeline, cfg sim.Config) (*Outcome, error) {
	return runLoop(pl, stopDelta(pl.Graph().N()), cfg, runIterLegacy)
}

// TestBatchMatchesLegacy is the differential gate of the batch port: the
// full iterated reduction on the batch runtime must produce byte-identical
// Outcomes — set, residual, per-iteration stats, complexity counters — to
// the per-node reference, for every graph shape and seed.
func TestBatchMatchesLegacy(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", graph.GNP(500, 60.0/500, 3)},
		{"rgg", graph.RGG(300, 40, 5)},
		{"clique", graph.Complete(90)},
		{"star", graph.Star(120)},
		{"isolated", graph.FromEdges(10, [][2]int{{0, 1}})},
		{"empty", graph.FromEdges(0, nil)},
	}
	for _, tc := range cases {
		for seed := uint64(1); seed <= 2; seed++ {
			ref, err := reduce(tc.g, sim.Config{Seed: seed}, runLegacy)
			if err != nil {
				t.Fatalf("%s seed=%d legacy: %v", tc.name, seed, err)
			}
			got, err := reduce(tc.g, sim.Config{Seed: seed}, Run)
			if err != nil {
				t.Fatalf("%s seed=%d batch: %v", tc.name, seed, err)
			}
			for v := range ref.InSet {
				if got.InSet[v] != ref.InSet[v] {
					t.Fatalf("%s seed=%d: InSet[%d] = %v, legacy %v",
						tc.name, seed, v, got.InSet[v], ref.InSet[v])
				}
			}
			if len(got.Residual) != len(ref.Residual) {
				t.Fatalf("%s seed=%d: %d residual nodes, legacy %d",
					tc.name, seed, len(got.Residual), len(ref.Residual))
			}
			for i := range got.Residual {
				if got.Residual[i] != ref.Residual[i] {
					t.Fatalf("%s seed=%d: residual[%d] differs", tc.name, seed, i)
				}
			}
			if len(got.Iters) != len(ref.Iters) || got.BoundExceeded != ref.BoundExceeded {
				t.Fatalf("%s seed=%d: %d iters (exceeded %d), legacy %d (%d)",
					tc.name, seed, len(got.Iters), got.BoundExceeded,
					len(ref.Iters), ref.BoundExceeded)
			}
			for i := range got.Iters {
				gi, ri := got.Iters[i], ref.Iters[i]
				if gi.Delta != ri.Delta || gi.NextDelta != ri.NextDelta ||
					gi.MeasuredD != ri.MeasuredD || gi.Nodes != ri.Nodes || gi.Sampled != ri.Sampled {
					t.Fatalf("%s seed=%d iter %d: stats differ\n legacy: %+v\n batch:  %+v",
						tc.name, seed, i, ri, gi)
				}
				r, gr := ri.Res, gi.Res
				if gr.Rounds != r.Rounds || gr.MsgsSent != r.MsgsSent ||
					gr.MsgsDropped != r.MsgsDropped || gr.BitsTotal != r.BitsTotal ||
					gr.BitsMax != r.BitsMax || gr.Violations != r.Violations {
					t.Fatalf("%s seed=%d iter %d: counters differ\n legacy: %+v\n batch:  %+v",
						tc.name, seed, i, r, gr)
				}
				for v := range gr.Awake {
					if gr.Awake[v] != r.Awake[v] {
						t.Fatalf("%s seed=%d iter %d: Awake[%d] differs",
							tc.name, seed, i, v)
					}
				}
			}
		}
	}
}
