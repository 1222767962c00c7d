package phase1

import (
	"math"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/rng"
	"github.com/energymis/energymis/internal/schedule"
	"github.com/energymis/energymis/internal/sim"
	"github.com/energymis/energymis/internal/verify"
)

// Per-node flag bits of the batch automaton.
const (
	fConflict = 1 << iota
	fJoined
	fInactive
	fSpoiled
)

// Batch is the struct-of-arrays automaton of the phase: the pre-sampled
// marking rounds, the Lemma 2.5 wake schedules (written ascending into one
// arena with per-node offsets, with no sort and no per-node allocation),
// and the protocol flags, all in flat arrays driven whole-awake-sets at a
// time. Random draws, wake schedules, and state transitions replicate the
// per-node specification in batch_test.go exactly, so runs are
// byte-identical to it through sim.Run (enforced by this package's
// differential test).
type Batch struct {
	g    *graph.Graph
	plan Plan

	rv      []int32 // logical round of the one-shot marking; -1 = never
	wakeAll []int32 // flattened ascending engine wake rounds
	wakeOff []int32 // node v's schedule is wakeAll[wakeOff[v]:wakeOff[v+1]]
	wi      []int32 // per-node cursor into its schedule segment
	flags   []uint8
}

var _ sim.BatchMachine = (*Batch)(nil)

// NewBatch builds the batch automaton for one phase run over g.
func NewBatch(g *graph.Graph, plan Plan) *Batch {
	return &Batch{g: g, plan: plan}
}

// markProbAt returns the marking probability 2^i/(markDamp·Δ) of logical
// round k, in iteration i, capped at 1.
func markProbAt(plan Plan, k int) float64 {
	i := k / plan.RoundsPerIter
	p := math.Pow(2, float64(i)) / (markDamp * float64(plan.MaxDegree))
	if p > 1 {
		p = 1
	}
	return p
}

// InitAll implements sim.BatchMachine: pre-sample each node's one-shot
// marking round and derive its S_{r_v} awake plan, written ascending
// straight into the arena: S_{r_v} comes ascending from
// schedule.AppendAscending through a path buffer on the stack, and 3r_v
// and 3r_v+1 go just before 3r_v+2.
func (b *Batch) InitAll(env *sim.BatchEnv) []int {
	n := b.g.N()
	b.rv = make([]int32, n)
	b.wi = make([]int32, n)
	b.flags = make([]uint8, n)
	b.wakeOff = make([]int32, n+1)
	first := make([]int, n)
	if b.plan.T == 0 || b.plan.MaxDegree == 0 {
		for v := range first {
			b.rv[v] = -1
			first[v] = sim.Never
		}
		return first
	}
	// Every marking probability is a function of the logical round only;
	// precompute the T-entry table once instead of per node.
	probs := make([]float64, b.plan.T)
	for k := range probs {
		probs[k] = markProbAt(b.plan, k)
	}
	// Sample every node first: typically few nodes are ever marked, and
	// only those need room in the arena.
	marked := 0
	for v := 0; v < n; v++ {
		r := rng.ForNode(env.Seed, v)
		b.rv[v] = -1
		for k := 0; k < b.plan.T; k++ {
			if r.Bernoulli(probs[k]) {
				b.rv[v] = int32(k)
				marked++
				break
			}
		}
	}
	wake := make([]int32, 0, marked*(schedule.MaxSize(b.plan.T)+2))
	var path [32]int32 // holds S_k for any T below 2³¹
	for v, rv := range b.rv {
		if rv < 0 {
			b.wakeOff[v+1] = b.wakeOff[v]
			first[v] = sim.Never // never marked: sleep through the whole phase
			continue
		}
		start := len(wake)
		for _, l := range schedule.AppendAscending(path[:0], b.plan.T, int(rv)) {
			if l == rv {
				wake = append(wake, 3*l, 3*l+1)
			}
			wake = append(wake, 3*l+2)
		}
		b.wakeOff[v+1] = int32(len(wake))
		first[v] = int(wake[start])
	}
	b.wakeAll = wake
	return first
}

// ComposeAll implements sim.BatchMachine.
func (b *Batch) ComposeAll(round int, awake []int32, out *sim.BatchOutbox) {
	l, sub := int32(round/3), round%3
	switch sub {
	case 0:
		for _, v := range awake {
			if l == b.rv[v] && b.flags[v]&fInactive == 0 {
				out.Broadcast(v, sim.Msg{Kind: kindMark, Bits: 1})
			}
		}
	case 1:
		for _, v := range awake {
			if l == b.rv[v] && b.flags[v]&(fInactive|fConflict) == 0 {
				// Lone marked node in its cohort neighborhood: join.
				b.flags[v] |= fJoined
				out.Broadcast(v, sim.Msg{Kind: kindJoin, Bits: 1})
			}
		}
	case 2:
		for _, v := range awake {
			if b.flags[v]&fJoined != 0 {
				out.Broadcast(v, sim.Msg{Kind: kindInMIS, Bits: 1})
			}
		}
	}
}

// DeliverAll implements sim.BatchMachine. A marked node with a marked
// neighbor is in conflict; a marked node with a joining neighbor goes
// inactive, and one that neither joined nor went inactive is spoiled; a
// node still to be marked goes inactive when a neighbor is in the set.
// Every sub-round only counts its inboxes: each carries one Kind —
// kindMark in sub-round 0, kindJoin in sub-round 1 and kindInMIS in
// sub-round 2 — so every message counted is one of that Kind.
func (b *Batch) DeliverAll(round int, awake []int32, in sim.Inboxes, next []int) {
	l, sub := int32(round/3), round%3
	for i, v := range awake {
		f := b.flags[v]
		switch sub {
		case 0:
			if l == b.rv[v] {
				if marks, _ := in.Count(i); marks > 0 {
					f |= fConflict
				}
			}
		case 1:
			if l == b.rv[v] {
				if joins, _ := in.Count(i); joins > 0 && f&fJoined == 0 {
					f |= fInactive
				}
				if f&(fJoined|fInactive) == 0 {
					f |= fSpoiled
				}
				if f&fConflict != 0 && f&fJoined == 0 {
					f |= fSpoiled
				}
			}
		case 2:
			if l < b.rv[v] && f&fJoined == 0 {
				if inMIS, _ := in.Count(i); inMIS > 0 {
					f |= fInactive
				}
			}
		}
		b.flags[v] = f
		b.wi[v]++
		seg := b.wakeAll[b.wakeOff[v]:b.wakeOff[v+1]]
		if int(b.wi[v]) >= len(seg) {
			next[i] = sim.Never
		} else {
			next[i] = int(seg[b.wi[v]])
		}
	}
}

// outcome assembles the phase Outcome from the batch state.
func (b *Batch) outcome(res *sim.Result) *Outcome {
	n := b.g.N()
	out := &Outcome{InSet: make([]bool, n), Plan: b.plan, Res: res}
	for v := 0; v < n; v++ {
		out.InSet[v] = b.flags[v]&fJoined != 0
		if b.rv[v] >= 0 {
			out.Sampled++
		}
		if b.flags[v]&fSpoiled != 0 {
			out.Spoiled++
		}
	}
	out.Residual = verify.Residual(b.g, out.InSet)
	return out
}
