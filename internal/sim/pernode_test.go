package sim

import (
	"fmt"
	"slices"
	"time"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/obs"
	"github.com/energymis/energymis/internal/rng"
)

// runPerNode is a second, independent implementation of Run's round
// semantics: a per-node loop with its own wake schedule, router,
// accounting and tracer hook, calling Compose and Deliver once per awake
// node per round. Run executes on the batch engine; the engine
// differentials (TestBatchAdapterMatchesPerNodeEngine,
// TestParallelPreservesMultiMessageOrder, TestCalendarOrdersMixedBuckets,
// FuzzEngineMatchesPerNode) hold the two to byte-identical inboxes and
// counters. cfg.Mem is ignored.
func runPerNode(g *graph.Graph, machines []Machine, cfg Config) (*Result, error) {
	n := g.N()
	if len(machines) != n {
		return nil, fmt.Errorf("sim: %d machines for %d nodes", len(machines), n)
	}
	if cfg.B == 0 {
		cfg.B = DefaultB(n)
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = 1 << 22
	}
	e := &engine{g: g, machines: machines, cfg: cfg}
	return e.run()
}

type engine struct {
	g        *graph.Graph
	machines []Machine
	cfg      Config

	// Wake schedule: a bucket of nodes per pending round, a min-heap of
	// the pending rounds, and a free list so bucket slices are reused
	// across rounds instead of reallocated.
	buckets    map[int][]int32
	roundHeap  []int
	bucketPool [][]int32

	awakeStamp []int64 // node -> last round awake (+1), 0 = never
	inboxes    [][]Msg
	outboxes   []Outbox
	res        Result
}

func (e *engine) schedule(v int32, round int) error {
	if round == Never {
		return nil
	}
	if round < 0 {
		return fmt.Errorf("sim: node %d scheduled invalid round %d", v, round)
	}
	b, ok := e.buckets[round]
	if !ok {
		// New pending round: register it in the heap and take a pooled
		// slice for its bucket.
		heapPush(&e.roundHeap, round)
		if k := len(e.bucketPool); k > 0 {
			b = e.bucketPool[k-1][:0]
			e.bucketPool = e.bucketPool[:k-1]
		}
	}
	e.buckets[round] = append(b, v)
	return nil
}

func (e *engine) run() (*Result, error) {
	n := e.g.N()
	e.buckets = make(map[int][]int32)
	e.awakeStamp = make([]int64, n)
	e.inboxes = make([][]Msg, n)
	e.outboxes = make([]Outbox, n)
	e.res.Awake = make([]int32, n)

	envs := make([]Env, n)
	for v := 0; v < n; v++ {
		envs[v] = Env{
			Node:      v,
			N:         n,
			Degree:    e.g.Degree(v),
			Neighbors: e.g.Neighbors(v),
			B:         e.cfg.B,
			Rand:      rng.NewForNode(e.cfg.Seed, v),
		}
		first := e.machines[v].Init(&envs[v])
		if err := e.schedule(int32(v), first); err != nil {
			return nil, err
		}
	}

	tr := e.cfg.Tracer
	for len(e.roundHeap) > 0 {
		// Every scheduled round exceeds every processed round, so the
		// heap minimum is always the next round with awake nodes; rounds
		// in between elapse on the wall clock with everyone asleep.
		round := heapPop(&e.roundHeap)
		awake := e.buckets[round]
		delete(e.buckets, round)
		if round >= e.cfg.MaxRounds {
			return nil, fmt.Errorf("sim: exceeded MaxRounds=%d", e.cfg.MaxRounds)
		}
		slices.Sort(awake)
		// Deduplicate: a node must not be double-scheduled, but be tolerant
		// of identical entries.
		awake = dedupSorted(awake)

		var roundStart time.Time
		var snap Result
		if tr != nil {
			roundStart = time.Now()
			snap = e.res // counter snapshot; the round's deltas are diffs against it
		}

		stamp := int64(round) + 1
		for _, v := range awake {
			e.awakeStamp[v] = stamp
			e.res.Awake[v]++
		}

		// Phase 1: compose.
		for _, v := range awake {
			ob := &e.outboxes[v]
			ob.reset(v)
			e.machines[v].Compose(round, ob)
		}

		// Phase 2: route (in sender order, so inboxes are sorted by sender
		// and runs are deterministic).
		for _, v := range awake {
			ob := &e.outboxes[v]
			nbrs := e.g.Neighbors(int(v))
			for _, m := range ob.bcast {
				// A broadcast occupies every incident edge: one CONGEST
				// message per neighbor; account the whole fan-out at once
				// instead of per copy.
				e.accountFanout(m, len(nbrs))
				for _, u := range nbrs {
					e.deliverTo(u, m, stamp)
				}
			}
			for _, am := range ob.msgs {
				if !e.g.HasEdge(int(v), int(am.to)) {
					return nil, fmt.Errorf("sim: node %d unicast to non-neighbor %d", v, am.to)
				}
				e.accountMsg(am.msg)
				e.deliverTo(am.to, am.msg, stamp)
			}
		}

		// Phase 3: deliver and reschedule.
		for _, v := range awake {
			next := e.machines[v].Deliver(round, e.inboxes[v])
			e.inboxes[v] = e.inboxes[v][:0]
			if next != Never && next <= round {
				return nil, fmt.Errorf("sim: node %d returned wake round %d <= current %d", v, next, round)
			}
			if err := e.schedule(v, next); err != nil {
				return nil, err
			}
		}
		if tr != nil {
			tr.Round(obs.RoundStats{
				Round:       round,
				Awake:       len(awake),
				MsgsSent:    e.res.MsgsSent - snap.MsgsSent,
				MsgsDropped: e.res.MsgsDropped - snap.MsgsDropped,
				Bits:        e.res.BitsTotal - snap.BitsTotal,
				Violations:  e.res.Violations - snap.Violations,
				WallNS:      time.Since(roundStart).Nanoseconds(),
			})
		}
		e.bucketPool = append(e.bucketPool, awake)
		e.res.Rounds = round + 1
	}
	return &e.res, nil
}

func (e *engine) accountFanout(m Msg, copies int) {
	if copies == 0 {
		return
	}
	e.res.MsgsSent += int64(copies)
	e.res.BitsTotal += int64(copies) * int64(m.Bits)
	if int(m.Bits) > e.res.BitsMax {
		e.res.BitsMax = int(m.Bits)
	}
	if int(m.Bits) > e.cfg.B {
		e.res.Violations += int64(copies)
	}
}

func (e *engine) accountMsg(m Msg) {
	e.res.MsgsSent++
	e.res.BitsTotal += int64(m.Bits)
	if int(m.Bits) > e.res.BitsMax {
		e.res.BitsMax = int(m.Bits)
	}
	if int(m.Bits) > e.cfg.B {
		e.res.Violations++
	}
}

func (e *engine) deliverTo(u int32, m Msg, stamp int64) {
	if e.awakeStamp[u] == stamp {
		e.inboxes[u] = append(e.inboxes[u], m)
	} else {
		e.res.MsgsDropped++
	}
}

func dedupSorted(s []int32) []int32 {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}
