package degreduce

import (
	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/rng"
	"github.com/energymis/energymis/internal/schedule"
	"github.com/energymis/energymis/internal/sim"
)

// Per-node flag bits of the batch automaton.
const (
	bTagged = 1 << iota
	bPremarked
	bMarked
	bUnmarked
	bJoined
	bInactive
	bHigh
	bInMIS
)

// Batch is the struct-of-arrays automaton of one reduction iteration: the
// pre-sampled participation rounds, the Lemma 2.5 wake schedules (written
// ascending into one arena with per-node offsets, with no sort and no
// per-node allocation), the tagged-neighbor counts, and the protocol
// flags, all in flat arrays driven whole-awake-sets at a time.
// Random draws, wake schedules, and state transitions replicate the
// per-node specification in batch_test.go exactly, so runs are
// byte-identical to it through sim.Run (enforced by this package's
// differential test).
type Batch struct {
	g    *graph.Graph
	plan Plan

	markedBits int32 // 1 + ceil(log2 N) of the current subgraph

	rands   []rng.Stream
	rv      []int32 // first sampled logical round; -1 = never sampled
	av      []int32 // tagged-neighbor count observed in r_v
	remDeg  []int32 // end window: active non-spoiled neighbor count
	flags   []uint8
	wakeAll []int32 // flattened ascending engine wake rounds
	wakeOff []int32 // node v's schedule is wakeAll[wakeOff[v]:wakeOff[v+1]]
	wi      []int32 // per-node cursor into its schedule segment
}

var _ sim.BatchMachine = (*Batch)(nil)

// NewBatchIter builds the batch automaton for one iteration over g.
func NewBatchIter(g *graph.Graph, plan Plan) *Batch {
	return &Batch{g: g, plan: plan}
}

// InitAll implements sim.BatchMachine: pre-sample each node's first
// participating round via the two sampling processes and derive its
// S_{r_v} awake plan plus the end window. Each plan is written ascending
// straight into the arena: S_{r_v} comes ascending from
// schedule.AppendAscending through a path buffer on the stack, 4r_v,
// 4r_v+1 and 4r_v+2 go just before 4r_v+3 (r_v is always in S_{r_v}), and
// the end window follows every main-window round.
func (b *Batch) InitAll(env *sim.BatchEnv) []int {
	n := b.g.N()
	b.markedBits = int32(1 + bitsFor(env.N))
	b.rands = make([]rng.Stream, n)
	b.rv = make([]int32, n)
	b.av = make([]int32, n)
	b.remDeg = make([]int32, n)
	b.flags = make([]uint8, n)
	b.wakeOff = make([]int32, n+1)
	b.wi = make([]int32, n)
	first := make([]int, n)
	wake := make([]int32, 0, n*(schedule.MaxSize(b.plan.T)+3+4))
	var path [32]int32 // holds S_k for any T below 2³¹
	for v := 0; v < n; v++ {
		b.rands[v] = rng.ForNode(env.Seed, v)
		r := &b.rands[v]
		tA := r.FirstSuccess(b.plan.TagProb, b.plan.T)
		tB := r.FirstSuccess(b.plan.PreMarkProb, b.plan.T)
		rv := -1
		switch {
		case tA >= 0 && (tB < 0 || tA < tB):
			rv = tA
			b.flags[v] |= bTagged
		case tB >= 0 && (tA < 0 || tB < tA):
			rv = tB
			b.flags[v] |= bPremarked
		case tA >= 0 && tA == tB:
			rv = tA
			b.flags[v] |= bTagged | bPremarked
		}
		b.rv[v] = int32(rv)
		start := len(wake)
		if rv >= 0 {
			for _, l := range schedule.AppendAscending(path[:0], b.plan.T, rv) {
				if int(l) == rv {
					wake = append(wake, 4*l, 4*l+1, 4*l+2)
				}
				wake = append(wake, 4*l+3)
			}
		}
		// Every node participates in the end window.
		for s := 0; s < 4; s++ {
			wake = append(wake, int32(b.plan.endRound(s)))
		}
		b.wakeOff[v+1] = int32(len(wake))
		first[v] = int(wake[start])
	}
	b.wakeAll = wake
	return first
}

// ComposeAll implements sim.BatchMachine.
func (b *Batch) ComposeAll(round int, awake []int32, out *sim.BatchOutbox) {
	if round >= 4*b.plan.T {
		b.composeEnd(round-4*b.plan.T, awake, out)
		return
	}
	l, sub := int32(round/4), round%4
	switch sub {
	case 0:
		for _, v := range awake {
			if l == b.rv[v] && b.flags[v]&(bTagged|bInactive) == bTagged {
				out.Broadcast(v, sim.Msg{Kind: kindTag, Bits: 1})
			}
		}
	case 1:
		for _, v := range awake {
			if l == b.rv[v] && b.flags[v]&(bPremarked|bInactive) == bPremarked {
				if b.rands[v].Bernoulli(markProb(b.plan, int(b.av[v]))) {
					b.flags[v] |= bMarked
					out.Broadcast(v, sim.Msg{
						Kind: kindMarked,
						A:    uint64(b.av[v]),
						Bits: b.markedBits,
					})
				}
			}
		}
	case 2:
		for _, v := range awake {
			if l == b.rv[v] && b.flags[v]&(bMarked|bUnmarked|bInactive) == bMarked {
				b.flags[v] |= bJoined | bInMIS
				out.Broadcast(v, sim.Msg{Kind: kindJoin, Bits: 1})
			}
		}
	case 3:
		for _, v := range awake {
			if b.flags[v]&bJoined != 0 {
				out.Broadcast(v, sim.Msg{Kind: kindInMIS, Bits: 1})
			}
		}
	}
}

func (b *Batch) composeEnd(s int, awake []int32, out *sim.BatchOutbox) {
	switch s {
	case 0:
		for _, v := range awake {
			if b.flags[v]&bJoined != 0 {
				out.Broadcast(v, sim.Msg{Kind: kindInMIS, Bits: 1})
			}
		}
	case 1:
		// Active non-spoiled nodes announce themselves for the remaining-
		// degree count. Spoiled = sampled but did not join.
		for _, v := range awake {
			if b.flags[v]&(bInactive|bJoined) == 0 && b.rv[v] < 0 {
				out.Broadcast(v, sim.Msg{Kind: kindAlive, Bits: 1})
			}
		}
	case 2:
		for _, v := range awake {
			if b.flags[v]&(bInactive|bJoined) == 0 && float64(b.remDeg[v]) > b.plan.HighThresh {
				b.flags[v] |= bHigh
				out.Broadcast(v, sim.Msg{Kind: kindHigh, Bits: 1})
			}
		}
	case 3:
		for _, v := range awake {
			if b.flags[v]&bHigh != 0 {
				b.flags[v] |= bJoined | bInMIS
				out.Broadcast(v, sim.Msg{Kind: kindHiJoin, Bits: 1})
			}
		}
	}
}

// DeliverAll implements sim.BatchMachine. Every sub-round but one only
// counts its inboxes, because each carries one Kind and every message
// counted is one of it: in the main window kindTag (sub-round 0), kindJoin
// (2) and kindInMIS (3), and in the end window kindInMIS (0), kindAlive
// (1), kindHigh (2) and kindHiJoin (3). Only the main window's marked
// sub-round (1) reads its inboxes' messages, to compare each kindMarked
// estimate A with the receiver's own.
func (b *Batch) DeliverAll(round int, awake []int32, in sim.Inboxes, next []int) {
	if round >= 4*b.plan.T {
		b.deliverEnd(round-4*b.plan.T, awake, in)
	} else {
		b.deliverMain(round, awake, in)
	}
	for i, v := range awake {
		b.wi[v]++
		seg := b.wakeAll[b.wakeOff[v]:b.wakeOff[v+1]]
		if int(b.wi[v]) >= len(seg) {
			next[i] = sim.Never
		} else {
			next[i] = int(seg[b.wi[v]])
		}
	}
}

func (b *Batch) deliverMain(round int, awake []int32, in sim.Inboxes) {
	l, sub := int32(round/4), round%4
	switch sub {
	case 0:
		for i, v := range awake {
			if l == b.rv[v] && b.flags[v]&bInactive == 0 {
				tags, _ := in.Count(i)
				b.av[v] += int32(tags)
			}
		}
	case 1:
		for i, v := range awake {
			if l == b.rv[v] && b.flags[v]&bMarked != 0 {
				for _, msg := range in.At(i) {
					// Unmark when a marked neighbor's estimate is at least
					// as large ("removes its marking if deg~(v) <= deg~(u)").
					if msg.Kind == kindMarked && int32(msg.A) >= b.av[v] {
						b.flags[v] |= bUnmarked
						break
					}
				}
			}
		}
	case 2:
		for i, v := range awake {
			if l == b.rv[v] && b.flags[v]&bJoined == 0 {
				if joins, _ := in.Count(i); joins > 0 {
					b.flags[v] |= bInactive
				}
			}
		}
	case 3:
		for i, v := range awake {
			if l < b.rv[v] && b.flags[v]&bJoined == 0 {
				if inMIS, _ := in.Count(i); inMIS > 0 {
					b.flags[v] |= bInactive
				}
			}
		}
	}
}

func (b *Batch) deliverEnd(s int, awake []int32, in sim.Inboxes) {
	switch s {
	case 0:
		for i, v := range awake {
			if b.flags[v]&bJoined == 0 {
				if inMIS, _ := in.Count(i); inMIS > 0 {
					b.flags[v] |= bInactive
				}
			}
		}
	case 1:
		for i, v := range awake {
			if b.flags[v]&(bInactive|bJoined) == 0 {
				alive, _ := in.Count(i)
				b.remDeg[v] += int32(alive)
			}
		}
	case 2:
		for i, v := range awake {
			if b.flags[v]&bHigh != 0 {
				if high, _ := in.Count(i); high > 0 {
					// A high neighbor exists: do not join.
					b.flags[v] &^= bHigh
				}
			}
		}
	case 3:
		for i, v := range awake {
			if b.flags[v]&bJoined == 0 {
				if hiJoins, _ := in.Count(i); hiJoins > 0 {
					b.flags[v] |= bInactive
				}
			}
		}
	}
}

// inSet returns the iteration's independent set.
func (b *Batch) inSet() []bool {
	out := make([]bool, len(b.flags))
	for v := range out {
		out[v] = b.flags[v]&bInMIS != 0
	}
	return out
}

// sampledCount returns the number of nodes that woke during the main
// window (tagged or pre-marked).
func (b *Batch) sampledCount() int {
	n := 0
	for _, rv := range b.rv {
		if rv >= 0 {
			n++
		}
	}
	return n
}
