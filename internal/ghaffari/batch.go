package ghaffari

import (
	"fmt"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/rng"
	"github.com/energymis/energymis/internal/sim"
)

// Batch is the struct-of-arrays form of the desire-level dynamics: K packed
// executions per node with all state in flat arrays, driven whole-awake-sets
// at a time by the batch runtime. Every per-node K-bit vector (marks, joins,
// in/out decisions) is held as two uint64 words — the same two payload words
// a CONGEST message carries, so K <= 128 exactly as in the per-node path.
// Random draws, desire-level updates, and wake decisions replicate the
// per-node Machine bit for bit, so runs are byte-identical to the
// Machine's through sim.Run (enforced by this package's differential
// tests).
type Batch struct {
	g      *graph.Graph
	n      int
	k      int
	rounds int

	rands []rng.Stream
	p     []float64 // desire levels, node-major with stride k
	// Packed per-node K-bit vectors, two words each.
	misA, misB   []uint64 // joined in execution e
	outA, outB   []uint64 // a neighbor joined in execution e
	markA, markB []uint64 // this round's own marks
	joinA, joinB []uint64 // joins announced next sub-round
}

var _ sim.BatchMachine = (*Batch)(nil)

// NewBatch builds the batch automaton running k packed executions for
// `rounds` logical rounds (2 engine rounds each) on g. k must be <= 128.
func NewBatch(g *graph.Graph, k, rounds int) *Batch {
	if k > 128 {
		panic(fmt.Sprintf("ghaffari: K=%d exceeds 128 packed bits", k))
	}
	return &Batch{g: g, n: g.N(), k: k, rounds: rounds}
}

// maskPair returns the two-word mask covering k bits.
func maskPair(k int) (uint64, uint64) {
	if k >= 128 {
		return ^uint64(0), ^uint64(0)
	}
	if k > 64 {
		return ^uint64(0), (uint64(1) << (uint(k) - 64)) - 1
	}
	if k == 64 {
		return ^uint64(0), 0
	}
	return (uint64(1) << uint(k)) - 1, 0
}

func bitOf(a, b uint64, e int) bool {
	if e < 64 {
		return a&(1<<uint(e)) != 0
	}
	return b&(1<<(uint(e)-64)) != 0
}

func setBit(a, b *uint64, e int) {
	if e < 64 {
		*a |= 1 << uint(e)
	} else {
		*b |= 1 << (uint(e) - 64)
	}
}

// InitAll implements sim.BatchMachine.
func (b *Batch) InitAll(env *sim.BatchEnv) []int {
	n := b.n
	b.rands = make([]rng.Stream, n)
	b.p = make([]float64, n*b.k)
	b.misA = make([]uint64, n)
	b.misB = make([]uint64, n)
	b.outA = make([]uint64, n)
	b.outB = make([]uint64, n)
	b.markA = make([]uint64, n)
	b.markB = make([]uint64, n)
	b.joinA = make([]uint64, n)
	b.joinB = make([]uint64, n)
	first := make([]int, n)
	for v := 0; v < n; v++ {
		b.rands[v] = rng.ForNode(env.Seed, v)
		for e := 0; e < b.k; e++ {
			b.p[v*b.k+e] = pMax
		}
		first[v] = 0
	}
	return first
}

// ComposeAll implements sim.BatchMachine. Even engine rounds announce this
// round's marks (always sent, like the per-node machine); odd rounds
// announce joins when there are any.
func (b *Batch) ComposeAll(round int, awake []int32, out *sim.BatchOutbox) {
	if round/2 >= b.rounds {
		return
	}
	bits := int32(b.k)
	if round%2 == 0 {
		for _, v := range awake {
			var ma, mb uint64
			decA, decB := b.misA[v]|b.outA[v], b.misB[v]|b.outB[v]
			base := int(v) * b.k
			r := &b.rands[v]
			for e := 0; e < b.k; e++ {
				if bitOf(decA, decB, e) {
					continue
				}
				if r.Bernoulli(b.p[base+e]) {
					setBit(&ma, &mb, e)
				}
			}
			b.markA[v], b.markB[v] = ma, mb
			out.Broadcast(v, sim.Msg{Kind: kindMarks, A: ma, B: mb, Bits: bits})
		}
	} else {
		for _, v := range awake {
			if b.joinA[v]|b.joinB[v] != 0 {
				out.Broadcast(v, sim.Msg{Kind: kindJoins, A: b.joinA[v], B: b.joinB[v], Bits: bits})
			}
		}
	}
}

// DeliverAll implements sim.BatchMachine.
func (b *Batch) DeliverAll(round int, awake []int32, in sim.Inboxes, next []int) {
	maskA, maskB := maskPair(b.k)
	if round%2 == 0 {
		for i, v := range awake {
			var na, nb uint64
			for _, msg := range in.At(i) {
				na |= msg.A
				nb |= msg.B
			}
			var ja, jb uint64
			decA, decB := b.misA[v]|b.outA[v], b.misB[v]|b.outB[v]
			base := int(v) * b.k
			for e := 0; e < b.k; e++ {
				if bitOf(decA, decB, e) {
					continue
				}
				nbrMarked := bitOf(na, nb, e)
				if !nbrMarked && bitOf(b.markA[v], b.markB[v], e) {
					setBit(&b.misA[v], &b.misB[v], e)
					setBit(&ja, &jb, e)
				}
				if nbrMarked {
					b.p[base+e] /= 2
					if b.p[base+e] < pMin {
						b.p[base+e] = pMin
					}
				} else {
					b.p[base+e] *= 2
					if b.p[base+e] > pMax {
						b.p[base+e] = pMax
					}
				}
			}
			b.joinA[v], b.joinB[v] = ja, jb
			next[i] = b.nextRound(round)
		}
	} else {
		for i, v := range awake {
			var na, nb uint64
			for _, msg := range in.At(i) {
				na |= msg.A
				nb |= msg.B
			}
			b.outA[v] |= na &^ b.misA[v]
			b.outB[v] |= nb &^ b.misB[v]
			// A node decided in every execution sleeps out the remaining
			// rounds, exactly like the per-node machine.
			if (b.misA[v]|b.outA[v])&maskA == maskA && (b.misB[v]|b.outB[v])&maskB == maskB {
				next[i] = sim.Never
				continue
			}
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

// InMISExec returns MIS membership in execution e after a run.
func (b *Batch) InMISExec(e int) []bool {
	out := make([]bool, b.n)
	for v := range out {
		out[v] = bitOf(b.misA[v], b.misB[v], e)
	}
	return out
}

// UndecidedExec returns the nodes undecided in execution e after a run.
func (b *Batch) UndecidedExec(e int) []int {
	var out []int
	for v := 0; v < b.n; v++ {
		if !bitOf(b.misA[v]|b.outA[v], b.misB[v]|b.outB[v], e) {
			out = append(out, v)
		}
	}
	return out
}
