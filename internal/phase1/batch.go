package phase1

import (
	"fmt"
	"math"
	"slices"

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
// marking rounds, the Lemma 2.5 wake schedules (flattened into one arena
// with per-node offsets), and the protocol flags, all in flat arrays driven
// whole-awake-sets at a time. Random draws, wake schedules, and state
// transitions replicate the per-node Machine exactly, so runs are
// byte-identical to the legacy path (enforced by TestBatchMatchesLegacy).
type Batch struct {
	g    *graph.Graph
	plan Plan
	damp float64

	rv      []int32 // logical round of the one-shot marking; -1 = never
	wakeAll []int32 // flattened sorted engine wake rounds
	wakeOff []int32 // node v's schedule is wakeAll[wakeOff[v]:wakeOff[v+1]]
	wi      []int32 // per-node cursor into its schedule segment
	flags   []uint8
}

var _ sim.BatchMachine = (*Batch)(nil)

// NewBatch builds the batch automaton for one phase run over g.
func NewBatch(g *graph.Graph, plan Plan, p Params) *Batch {
	return &Batch{g: g, plan: plan, damp: p.MarkDamp}
}

func markProbAt(plan Plan, damp float64, k int) float64 {
	i := k / plan.RoundsPerIter
	p := math.Pow(2, float64(i)) / (damp * float64(plan.MaxDegree))
	if p > 1 {
		p = 1
	}
	return p
}

// InitAll implements sim.BatchMachine: pre-sample each node's one-shot
// marking round and derive its S_{r_v} awake plan.
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
		probs[k] = markProbAt(b.plan, b.damp, k)
	}
	var scratch []int32
	for v := 0; v < n; v++ {
		r := rng.ForNode(env.Seed, v)
		rv := int32(-1)
		for k := 0; k < b.plan.T; k++ {
			if r.Bernoulli(probs[k]) {
				rv = int32(k)
				break
			}
		}
		b.rv[v] = rv
		if rv < 0 {
			b.wakeOff[v+1] = b.wakeOff[v]
			first[v] = sim.Never // never marked: sleep through the whole phase
			continue
		}
		scratch = scratch[:0]
		for _, l := range schedule.Set(b.plan.T, int(rv)) {
			if int32(l) == rv {
				scratch = append(scratch, int32(3*l), int32(3*l+1))
			}
			scratch = append(scratch, int32(3*l+2))
		}
		slices.Sort(scratch)
		scratch = dedup32(scratch)
		b.wakeAll = append(b.wakeAll, scratch...)
		b.wakeOff[v+1] = int32(len(b.wakeAll))
		first[v] = int(scratch[0])
	}
	return first
}

func dedup32(s []int32) []int32 {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
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

// DeliverAll implements sim.BatchMachine.
func (b *Batch) DeliverAll(round int, awake []int32, in sim.Inboxes, next []int) {
	l, sub := int32(round/3), round%3
	for i, v := range awake {
		f := b.flags[v]
		switch sub {
		case 0:
			if l == b.rv[v] {
				for _, msg := range in.At(i) {
					if msg.Kind == kindMark {
						f |= fConflict
						break
					}
				}
			}
		case 1:
			if l == b.rv[v] {
				for _, msg := range in.At(i) {
					if msg.Kind == kindJoin && f&fJoined == 0 {
						f |= fInactive
					}
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
				for _, msg := range in.At(i) {
					if msg.Kind == kindInMIS {
						f |= fInactive
					}
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

// RunWithPlanLegacy executes the phase with the per-node Machine through
// sim.Run: the reference the batch automaton is differentially tested
// against.
func RunWithPlanLegacy(g *graph.Graph, plan Plan, p Params, cfg sim.Config) (*Outcome, error) {
	machines, nodes := NewMachines(g, plan, p)
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
