package phase3

import (
	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/rng"
	"github.com/energymis/energymis/internal/sim"
)

// Batch drives the Phase III automata on the batch runtime as one flat
// value array: all machines live in a single contiguous slice (no per-node
// heap object, no interface dispatch — Compose/Deliver are direct method
// calls), each node composes into one scratch Outbox that is drained into
// the shared BatchOutbox, and inboxes are served from the engine's pooled
// buffer.
//
// Unlike the simpler protocols (luby, phase1, ghaffari, degreduce), the
// Phase III automaton is not split into struct-of-arrays form: its state is
// dozens of interdependent per-node fields (tree position, iteration
// scratch, merge roles, finisher vectors) touched a few at a time along
// deeply branching stage logic, so an SoA split would trade a large
// correctness risk for little locality gain. The flat-array driver already
// removes the per-node engine's dispatch and allocation overhead, which is
// what the batch runtime exists to avoid. State transitions are the
// per-node Machine's own code, so runs are byte-identical to the legacy
// path by construction (still enforced by TestBatchMatchesLegacy).
type Batch struct {
	tt     *Timetable
	thresh int

	nodes []Machine
	envs  []sim.Env
	rands []rng.Stream // per-node streams in one arena, aliased by envs
	out   sim.Outbox   // scratch for one node's Compose, drained after each call
}

var _ sim.BatchMachine = (*Batch)(nil)

// NewBatch builds the batch driver for one Phase III run over g.
func NewBatch(g *graph.Graph, tt *Timetable, thresh int) *Batch {
	n := g.N()
	b := &Batch{tt: tt, thresh: thresh}
	b.nodes = make([]Machine, n)
	b.envs = make([]sim.Env, n)
	b.rands = make([]rng.Stream, n)
	return b
}

// InitAll implements sim.BatchMachine.
func (b *Batch) InitAll(env *sim.BatchEnv) []int {
	first := make([]int, env.N)
	for v := 0; v < env.N; v++ {
		b.rands[v] = rng.ForNode(env.Seed, v)
		b.envs[v] = sim.Env{
			Node:      v,
			N:         env.N,
			Degree:    env.G.Degree(v),
			Neighbors: env.G.Neighbors(v),
			B:         env.B,
			Rand:      &b.rands[v],
		}
		b.nodes[v] = Machine{tt: b.tt, threshVal: b.thresh}
		first[v] = b.nodes[v].Init(&b.envs[v])
	}
	return first
}

// ComposeAll implements sim.BatchMachine.
func (b *Batch) ComposeAll(round int, awake []int32, out *sim.BatchOutbox) {
	ob := &b.out
	for _, v := range awake {
		ob.ResetFor(v, b.envs[v].Neighbors)
		b.nodes[v].Compose(round, ob)
		ob.DrainTo(out)
	}
}

// DeliverAll implements sim.BatchMachine.
func (b *Batch) DeliverAll(round int, awake []int32, in sim.Inboxes, next []int) {
	for i, v := range awake {
		next[i] = b.nodes[v].Deliver(round, in.At(i))
	}
}

// Node returns the v-th automaton for outcome extraction after a run.
func (b *Batch) Node(v int) *Machine { return &b.nodes[v] }
