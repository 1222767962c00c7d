package luby

import (
	"fmt"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/rng"
	"github.com/energymis/energymis/internal/sim"
)

// Message kinds.
const (
	kindMark    = 1 // A = remaining degree of the sender
	kindJoin    = 2
	kindRemoved = 3
)

// Per-node flag bits of the batch automaton.
const (
	fDecided = 1 << iota
	fMarked
	fJustDecided
	fRemovedSent
	fInMIS
)

// Batch is the struct-of-arrays Luby automaton: the whole network's state
// in three flat arrays, driven whole-awake-sets at a time by the batch
// runtime. State transitions, message contents, and random draws are
// those of the per-node specification in batch_test.go, so runs are
// byte-identical to it through sim.Run (enforced by this package's
// differential test).
type Batch struct {
	g         *graph.Graph
	n         int
	markBits  int32
	activeDeg []int32
	flags     []uint8
	rands     []rng.Stream
}

var _ sim.BatchMachine = (*Batch)(nil)

// NewBatch builds the batch automaton for g.
func NewBatch(g *graph.Graph) *Batch {
	return &Batch{g: g, n: g.N()}
}

// InitAll implements sim.BatchMachine.
func (b *Batch) InitAll(env *sim.BatchEnv) []int {
	b.markBits = int32(bitsFor(env.N))
	b.activeDeg = make([]int32, b.n)
	b.flags = make([]uint8, b.n)
	b.rands = make([]rng.Stream, b.n)
	first := make([]int, b.n)
	for v := 0; v < b.n; v++ {
		b.activeDeg[v] = int32(b.g.Degree(v))
		b.rands[v] = rng.ForNode(env.Seed, v)
		first[v] = 0
	}
	return first
}

// ComposeAll implements sim.BatchMachine. Engine round 3r+s is sub-round s
// of logical round r.
func (b *Batch) ComposeAll(round int, awake []int32, out *sim.BatchOutbox) {
	switch round % 3 {
	case 0: // marking sub-round
		for _, v := range awake {
			f := b.flags[v]
			if f&fDecided != 0 {
				continue
			}
			p := 1.0
			if d := b.activeDeg[v]; d > 0 {
				p = 1 / (2 * float64(d))
			}
			if b.rands[v].Bernoulli(p) {
				b.flags[v] = f | fMarked
				out.Broadcast(v, sim.Msg{
					Kind: kindMark,
					A:    uint64(b.activeDeg[v]),
					Bits: b.markBits,
				})
			} else {
				b.flags[v] = f &^ fMarked
			}
		}
	case 1: // join sub-round
		for _, v := range awake {
			if f := b.flags[v]; f&fMarked != 0 && f&fDecided == 0 {
				out.Broadcast(v, sim.Msg{Kind: kindJoin, Bits: 1})
			}
		}
	case 2: // removal notification sub-round
		for _, v := range awake {
			if f := b.flags[v]; f&fJustDecided != 0 && f&fRemovedSent == 0 {
				out.Broadcast(v, sim.Msg{Kind: kindRemoved, Bits: 1})
				b.flags[v] = f | fRemovedSent
			}
		}
	}
}

// DeliverAll implements sim.BatchMachine. A marked node unmarks when a
// marked neighbor has a larger remaining degree, or an equal one and a
// larger ID; a marked node still marked joins, and an unmarked node with a
// joining neighbor is decided; a node loses one remaining degree per
// neighbor removed. Only the marking sub-round reads its inboxes' messages
// (their A and From). The join and removal sub-rounds only count theirs:
// the join sub-round carries only kindJoin and the removal sub-round only
// kindRemoved, so every message counted is one of that Kind.
func (b *Batch) DeliverAll(round int, awake []int32, in sim.Inboxes, next []int) {
	switch round % 3 {
	case 0:
		for i, v := range awake {
			if b.flags[v]&fMarked != 0 {
				for _, msg := range in.At(i) {
					if msg.Kind != kindMark {
						continue
					}
					d := int32(msg.A)
					if d > b.activeDeg[v] || (d == b.activeDeg[v] && msg.From > v) {
						b.flags[v] &^= fMarked
						break
					}
				}
			}
			next[i] = round + 1
		}
	case 1:
		for i, v := range awake {
			f := b.flags[v]
			if f&fDecided == 0 {
				if f&fMarked != 0 {
					f |= fInMIS | fDecided | fJustDecided
				} else if joins, _ := in.Count(i); joins > 0 {
					f |= fDecided | fJustDecided
				}
			}
			b.flags[v] = f &^ fMarked
			next[i] = round + 1
		}
	default:
		for i, v := range awake {
			removed, _ := in.Count(i)
			b.activeDeg[v] -= int32(removed)
			if b.flags[v]&fDecided != 0 {
				next[i] = sim.Never
			} else {
				next[i] = round + 1
			}
		}
	}
}

// InSet returns the computed MIS membership after a run.
func (b *Batch) InSet() []bool {
	out := make([]bool, b.n)
	for v := range out {
		out[v] = b.flags[v]&fInMIS != 0
	}
	return out
}

// Run executes Luby's algorithm on g through the batch runtime and returns
// the MIS and the engine result.
func Run(g *graph.Graph, cfg sim.Config) ([]bool, *sim.Result, error) {
	b := NewBatch(g)
	res, err := sim.RunBatch(g, b, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("luby: %w", err)
	}
	return b.InSet(), res, nil
}

func bitsFor(n int) int {
	b := 1
	for p := 1; p < n; p <<= 1 {
		b++
	}
	return b
}
