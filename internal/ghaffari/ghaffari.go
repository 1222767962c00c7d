package ghaffari

import (
	"fmt"
	"math/bits"

	"github.com/energymis/energymis/internal/rng"
)

const (
	pMax = 0.5
	pMin = 1.0 / (1 << 20)
)

// MaxK is the most executions a Proto packs: one bit each of a uint64.
// Lemma 2.7 needs K = Θ(log n), and Phase III's default
// 2⌈log₂(n+2)⌉ never exceeds it for an int32 node count.
const MaxK = 64

// nextDesire is the desire-level rule of the dynamics: after a round with
// a marked neighbor the level halves, but not below pMin; otherwise it
// doubles, but not above pMax.
func nextDesire(p float64, nbrMarked bool) float64 {
	if nbrMarked {
		return max(p/2, pMin)
	}
	return min(2*p, pMax)
}

// Proto is the per-node state of K ≤ MaxK packed executions, the form
// Lemma 2.7's finisher runs on poly(log n)-size components: Phase III's
// machines hold it by value and drive it by ComposeMarks/AbsorbMarks/
// AbsorbJoins after Reset. Bit e of every word is execution e; a mark,
// join or success vector is one word and so one message. One execution
// on the whole graph (Lemma 2.6) runs as Batch instead.
type Proto struct {
	rand *rng.Stream

	p      []float64 // desire level per execution; K = len(p)
	in     uint64    // joined in execution e
	out    uint64    // a neighbor joined in execution e
	marked uint64    // this round's own marks
}

// Reset starts K = len(levels) ≤ MaxK fresh executions that draw from
// rand and keep their desire levels in levels, all set to 1/2. Resetting
// a used Proto gives the same state as resetting a zero one.
func (p *Proto) Reset(levels []float64, rand *rng.Stream) {
	if len(levels) > MaxK {
		panic(fmt.Sprintf("ghaffari: K=%d above %d", len(levels), MaxK))
	}
	for i := range levels {
		levels[i] = pMax
	}
	*p = Proto{rand: rand, p: levels}
}

// Bits returns the message size of one packed vector.
func (p *Proto) Bits() int32 { return int32(len(p.p)) }

// all returns the word with one bit per execution.
func (p *Proto) all() uint64 { return ^uint64(0) >> (MaxK - len(p.p)) }

// undecided returns the executions in which the node is still undecided.
func (p *Proto) undecided() uint64 { return p.all() &^ (p.in | p.out) }

// ComposeMarks draws this round's marks, in execution order. A node that
// is decided (in or out) in execution e never marks in e.
func (p *Proto) ComposeMarks() uint64 {
	p.marked = 0
	for u := p.undecided(); u != 0; u &= u - 1 {
		e := bits.TrailingZeros64(u)
		if p.rand.Bernoulli(p.p[e]) {
			p.marked |= 1 << e
		}
	}
	return p.marked
}

// AbsorbMarks takes the OR of the neighbors' mark vectors: in every
// undecided execution the node joins when it marked and no neighbor did,
// and its desire level follows nextDesire. It returns the join vector to
// announce.
func (p *Proto) AbsorbMarks(nbrMarks uint64) uint64 {
	u := p.undecided()
	joins := p.marked &^ nbrMarks & u
	for ; u != 0; u &= u - 1 {
		e := bits.TrailingZeros64(u)
		p.p[e] = nextDesire(p.p[e], nbrMarks&(1<<e) != 0)
	}
	p.in |= joins
	return joins
}

// AbsorbJoins takes the OR of the neighbors' join vectors: a join in
// execution e knocks this node out of e (unless it joined itself, which
// cannot coincide with a neighbor join in a correct run).
func (p *Proto) AbsorbJoins(nbrJoins uint64) {
	p.out |= nbrJoins & p.all() &^ p.in
}

// Decided returns the executions in which the node is decided (joined or
// knocked out): its success vector.
func (p *Proto) Decided() uint64 { return p.in | p.out }

// AllDecided reports whether the node is decided in every execution.
func (p *Proto) AllDecided() bool { return p.undecided() == 0 }

// InMIS reports whether the node joined in execution e.
func (p *Proto) InMIS(e int) bool { return p.in&(1<<e) != 0 }
