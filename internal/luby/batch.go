package luby

import (
	"fmt"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/rng"
	"github.com/energymis/energymis/internal/sim"
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
// identical to the per-node Machine, so runs are byte-identical to the
// legacy path (enforced by TestBatchMatchesLegacy).
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
// of logical round r, exactly as in the per-node machine.
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

// DeliverAll implements sim.BatchMachine.
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
				}
				for _, msg := range in.At(i) {
					if msg.Kind == kindJoin && f&fInMIS == 0 {
						f |= fDecided | fJustDecided
					}
				}
			}
			b.flags[v] = f &^ fMarked
			next[i] = round + 1
		}
	default:
		for i, v := range awake {
			for _, msg := range in.At(i) {
				if msg.Kind == kindRemoved {
					b.activeDeg[v]--
				}
			}
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
// the MIS and the engine result. It is byte-identical to RunLegacy for
// every (graph, Config) — the batch form only removes per-node dispatch and
// allocation from the hot path.
func Run(g *graph.Graph, cfg sim.Config) ([]bool, *sim.Result, error) {
	b := NewBatch(g)
	res, err := sim.RunBatch(g, b, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("luby: %w", err)
	}
	return b.InSet(), res, nil
}

// RunLegacy executes the per-node Machine implementation through sim.Run:
// the reference the batch automaton is differentially tested against.
func RunLegacy(g *graph.Graph, cfg sim.Config) ([]bool, *sim.Result, error) {
	machines := make([]sim.Machine, g.N())
	nodes := make([]Machine, g.N())
	for v := range machines {
		machines[v] = &nodes[v]
	}
	res, err := sim.Run(g, machines, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("luby: %w", err)
	}
	inSet := make([]bool, g.N())
	for v := range nodes {
		inSet[v] = nodes[v].InMIS
	}
	return inSet, res, nil
}
