package ghaffari

import (
	"fmt"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/rng"
	"github.com/energymis/energymis/internal/sim"
)

// Message kinds of the batch automaton.
const (
	kindMarks = 11
	kindJoins = 12
)

// Per-node flag bits of the batch automaton.
const (
	fMarked = 1 << iota // marked in this logical round
	fInMIS              // joined the set
	fOut                // a neighbor joined the set
)

// Batch is the struct-of-arrays form of one execution of the desire-level
// dynamics, the one Lemma 2.6's shattering runs: a desire level and a
// flag byte per node, driven whole-awake-sets at a time by the batch
// runtime. Logical round r is engine round 2r (marks) and 2r+1 (joins).
// A node that has joined, or has a neighbor that joined, sleeps out the
// remaining rounds after the join round, so every node awake in a mark
// round is undecided, and a node awake in a join round that is in the set
// joined one engine round earlier. Random draws, desire levels, messages
// and wake rounds are those of the per-node specification in this
// package's tests, bit for bit (TestBatchMatchesLegacy and
// FuzzRunShatterMatchesPerNode hold them to it).
type Batch struct {
	n      int
	rounds int

	rands []rng.Stream
	p     []float64 // desire level
	flags []uint8
}

var _ sim.BatchMachine = (*Batch)(nil)

// NewBatch builds the batch automaton running the dynamics for `rounds`
// logical rounds (2 engine rounds each) on g.
func NewBatch(g *graph.Graph, rounds int) *Batch {
	return &Batch{n: g.N(), rounds: rounds}
}

// InitAll implements sim.BatchMachine. Every node wakes at round 0.
func (b *Batch) InitAll(env *sim.BatchEnv) []int {
	b.rands = make([]rng.Stream, b.n)
	b.p = make([]float64, b.n)
	b.flags = make([]uint8, b.n)
	for v := range b.rands {
		b.rands[v] = rng.ForNode(env.Seed, v)
		b.p[v] = pMax
	}
	return make([]int, b.n)
}

// ComposeAll implements sim.BatchMachine. Mark rounds always broadcast the
// node's mark bit; join rounds broadcast from the nodes that just joined.
func (b *Batch) ComposeAll(round int, awake []int32, out *sim.BatchOutbox) {
	if round/2 >= b.rounds {
		return
	}
	if round%2 == 0 {
		for _, v := range awake {
			var mark uint64
			if b.rands[v].Bernoulli(b.p[v]) {
				b.flags[v] |= fMarked
				mark = 1
			}
			out.Broadcast(v, sim.Msg{Kind: kindMarks, A: mark, Bits: 1})
		}
		return
	}
	for _, v := range awake {
		if b.flags[v]&fInMIS != 0 {
			out.Broadcast(v, sim.Msg{Kind: kindJoins, A: 1, Bits: 1})
		}
	}
}

// DeliverAll implements sim.BatchMachine. A marked node with no marked
// neighbor joins, and the desire level follows nextDesire. A decided node
// sleeps after the join round. Both rounds only count their inboxes: the
// marked senders in a mark round, any sender in a join round.
func (b *Batch) DeliverAll(round int, awake []int32, in sim.Inboxes, next []int) {
	if round%2 == 0 {
		for i, v := range awake {
			_, marked := in.Count(i)
			nbrMarked := marked > 0
			f := b.flags[v]
			if !nbrMarked && f&fMarked != 0 {
				f |= fInMIS
			}
			b.p[v] = nextDesire(b.p[v], nbrMarked)
			b.flags[v] = f &^ fMarked
			next[i] = b.nextRound(round)
		}
		return
	}
	for i, v := range awake {
		f := b.flags[v]
		if f&fInMIS == 0 {
			if joined, _ := in.Count(i); joined > 0 {
				f |= fOut
				b.flags[v] = f
			}
		}
		if f&(fInMIS|fOut) != 0 {
			next[i] = sim.Never
		} else {
			next[i] = b.nextRound(round)
		}
	}
}

func (b *Batch) nextRound(round int) int {
	if round+1 >= 2*b.rounds {
		return sim.Never
	}
	return round + 1
}

// RunShatter executes the dynamics for `rounds` logical rounds on g and
// returns the independent set found, the undecided survivors (ascending),
// and the engine result.
func RunShatter(g *graph.Graph, rounds int, cfg sim.Config) (inSet []bool, survivors []int, res *sim.Result, err error) {
	b := NewBatch(g, rounds)
	res, err = sim.RunBatch(g, b, cfg)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("ghaffari: %w", err)
	}
	inSet = make([]bool, b.n)
	for v, f := range b.flags {
		inSet[v] = f&fInMIS != 0
		if f&(fInMIS|fOut) == 0 {
			survivors = append(survivors, v)
		}
	}
	return inSet, survivors, res, nil
}
