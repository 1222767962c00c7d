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

// A node's state in the batch automaton is one byte: three flag bits,
// and above them the exponent k of its desire level 2⁻ᵏ.
const (
	fMarked = 1 << iota // marked in this logical round
	fInMIS              // joined the set
	fOut                // a neighbor joined the set
)

// kShift places the exponent in the state byte: k = s >> kShift.
const kShift = 3

// kMin and kMax bound the exponent: they are pMax = 2⁻¹ and pMin = 2⁻²⁰,
// the cap and the floor of nextDesire. TestDesireExponentMatchesFloat
// holds the byte rule to nextDesire at every k between them.
const (
	kMin = 1
	kMax = 20
)

// marks reports, as 1 or 0, whether a node at desire level 2⁻ᵏ marks on
// x, the next Uint64 of its stream. It is Bernoulli(2⁻ᵏ)'s outcome on the
// same draw: Bernoulli takes one Uint64 x and succeeds when
// (x>>11)/2⁵³ < 2⁻ᵏ, that is when x < 2⁶⁴⁻ᵏ, when x's top k bits are zero.
// k ≤ kMax < 64, so masking the shift changes nothing.
func marks(x uint64, k uint8) uint8 {
	if x>>((64-k)&63) == 0 {
		return 1
	}
	return 0
}

// afterMarks is a mark round's rule on a state byte s, where nbr is 1 if
// a neighbor marked and 0 if none did. A marked node with no marked
// neighbor joins, the mark clears, and the exponent moves by one within
// [kMin, kMax]: up after a marked neighbor, so the level halves, and down
// otherwise, so it doubles. That is nextDesire on 2⁻ᵏ, computed with no
// data-dependent branch.
func afterMarks(s, nbr uint8) uint8 {
	k := min(max(int(s>>kShift)+2*int(nbr)-1, kMin), kMax)
	joined := s & fMarked &^ nbr
	return uint8(k)<<kShift | s&(fInMIS|fOut) | joined*fInMIS
}

// Batch is the struct-of-arrays form of one execution of the desire-level
// dynamics, the one Lemma 2.6's shattering runs: a stream and a state byte
// per node, driven whole-awake-sets at a time by the batch runtime.
// Logical round r is engine round 2r (marks) and 2r+1 (joins). A node
// that has joined, or has a neighbor that joined, sleeps out the
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
	state []uint8 // flags, and the desire level's exponent above kShift
}

var _ sim.BatchMachine = (*Batch)(nil)

// NewBatch builds the batch automaton running the dynamics for `rounds`
// logical rounds (2 engine rounds each) on g.
func NewBatch(g *graph.Graph, rounds int) *Batch {
	return &Batch{n: g.N(), rounds: rounds}
}

// InitAll implements sim.BatchMachine. Every node wakes at round 0, at
// desire level pMax.
func (b *Batch) InitAll(env *sim.BatchEnv) []int {
	b.rands = make([]rng.Stream, b.n)
	b.state = make([]uint8, b.n)
	for v := range b.rands {
		b.rands[v] = rng.ForNode(env.Seed, v)
		b.state[v] = kMin << kShift
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
			s := b.state[v]
			mark := marks(b.rands[v].Uint64(), s>>kShift)
			b.state[v] = s | mark // fMarked
			out.Broadcast(v, sim.Msg{Kind: kindMarks, A: uint64(mark), Bits: 1})
		}
		return
	}
	for _, v := range awake {
		if b.state[v]&fInMIS != 0 {
			out.Broadcast(v, sim.Msg{Kind: kindJoins, A: 1, Bits: 1})
		}
	}
}

// DeliverAll implements sim.BatchMachine. In a mark round each node
// applies afterMarks. A decided node sleeps after the join round. Both
// rounds only count their inboxes: the marked senders in a mark round,
// any sender in a join round.
func (b *Batch) DeliverAll(round int, awake []int32, in sim.Inboxes, next []int) {
	if round%2 == 0 {
		nr := b.nextRound(round)
		for i, v := range awake {
			_, marked := in.Count(i)
			b.state[v] = afterMarks(b.state[v], uint8(min(marked, 1)))
			next[i] = nr
		}
		return
	}
	for i, v := range awake {
		f := b.state[v]
		if f&fInMIS == 0 {
			if joined, _ := in.Count(i); joined > 0 {
				f |= fOut
				b.state[v] = f
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
	for v, f := range b.state {
		inSet[v] = f&fInMIS != 0
		if f&(fInMIS|fOut) == 0 {
			survivors = append(survivors, v)
		}
	}
	return inSet, survivors, res, nil
}
