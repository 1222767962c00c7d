// This file is the engine: RunBatch and its pooled buffers. Run (sim.go)
// executes per-node machines on it through an adapter; see the package
// documentation in doc.go.

package sim

import (
	"fmt"
	"slices"
	"time"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/obs"
)

// BatchEnv is the static view a BatchMachine receives once, before round 0:
// the full topology (a simulated node may of course only *use* its own
// neighborhood), the model parameters, and the seed from which per-node
// randomness must be derived via rng.ForNode(Seed, v) — the same streams
// Run hands each Machine.
type BatchEnv struct {
	G    *graph.Graph
	N    int // number of nodes
	B    int // CONGEST message budget in bits
	Seed uint64
}

// BatchMachine is a whole-protocol automaton over flat per-node state.
//
// InitAll is called once; it returns each node's first awake round (Never
// to sleep forever), exactly like Machine.Init per node.
//
// In every round with a non-empty awake set, the engine calls ComposeAll
// and then DeliverAll with the sorted awake set. ComposeAll must emit
// messages grouped by sender, in the order senders appear in `awake` (the
// natural shape of a `for _, v := range awake` loop). DeliverAll reads each
// awake node's inbox via in.At(i) — i indexes into the `awake` slice it was
// given — and writes the node's next wake round (must be > round, or Never)
// into next[i].
type BatchMachine interface {
	InitAll(env *BatchEnv) []int
	ComposeAll(round int, awake []int32, out *BatchOutbox)
	DeliverAll(round int, awake []int32, in Inboxes, next []int)
}

// BatchOutbox collects the messages of one ComposeAll call: broadcasts and
// unicasts in two flat arrays, each grouped by sender in awake order (the
// engine's router relies on that grouping to deliver in sender order
// without sorting). Buffers are pooled and reused across rounds.
type BatchOutbox struct {
	bcast []Msg   // broadcasts; Msg.From is the sender
	uni   []Msg   // unicasts; Msg.From is the sender
	uto   []int32 // unicast destinations, parallel to uni
}

// Broadcast queues m on every incident edge of node from.
func (o *BatchOutbox) Broadcast(from int32, m Msg) {
	m.From = from
	o.bcast = append(o.bcast, m)
}

// Send queues a unicast from node from to its neighbor to. RunBatch fails
// the run with an error when to is not a neighbor of from.
func (o *BatchOutbox) Send(from, to int32, m Msg) {
	m.From = from
	o.uni = append(o.uni, m)
	o.uto = append(o.uto, to)
}

func (o *BatchOutbox) reset() {
	o.bcast = o.bcast[:0]
	o.uni = o.uni[:0]
	o.uto = o.uto[:0]
}

// Inboxes serves every awake node's inbox as a segment of one pooled
// buffer: node awake[i]'s messages are At(i), in routing order
// (ascending sender; per sender, broadcasts before unicasts, each in call
// order).
type Inboxes struct {
	buf []Msg
	off []int32 // len = awake set + 1
}

// At returns the inbox of the i-th node of the awake slice this view was
// delivered with. The returned slice aliases the round's shared buffer and
// must not be retained across rounds.
func (in Inboxes) At(i int) []Msg {
	return in.buf[in.off[i]:in.off[i+1]]
}

// Mem holds the engine's reusable buffers, so a caller executing many runs
// can amortize all engine allocations across runs instead of paying them
// per run. A Mem may be
// reused across runs of different sizes (buffers grow to the maximum) but
// must not be shared by concurrent runs. The zero value is ready to use.
type Mem struct {
	stamp      []int64 // node -> stampBase + round awake + 1
	stampBase  int64   // epoch offset, bumped per run so stamp needs no clearing
	rank       []int32 // node -> index in this round's awake set
	next       []int
	inbuf      []Msg
	inoff      []int32
	cnt        []int32
	routed     []Msg
	rdst       []int32
	roundHeap  []int
	buckets    map[int][]int32
	bucketPool [][]int32
	out        BatchOutbox
}

// NewMem returns an empty buffer pool.
func NewMem() *Mem { return &Mem{} }

func (m *Mem) grow(n int) {
	if cap(m.stamp) < n {
		m.stamp = make([]int64, n)
		m.stampBase = 0
	}
	m.stamp = m.stamp[:n]
	if cap(m.rank) < n {
		m.rank = make([]int32, n)
	}
	m.rank = m.rank[:n]
	if m.buckets == nil {
		m.buckets = make(map[int][]int32)
	}
}

// RunBatch executes bm on g until no node is scheduled to wake, and returns
// the measured Result. An error is returned only if the MaxRounds cap is
// hit or bm misbehaves (a non-increasing wake round, or a unicast to a
// node that is not the sender's neighbor). The zero values of cfg.B and
// cfg.MaxRounds get their documented defaults; cfg.Mem, when non-nil,
// supplies pooled buffers reused across runs.
func RunBatch(g *graph.Graph, bm BatchMachine, cfg Config) (*Result, error) {
	n := g.N()
	if cfg.B == 0 {
		cfg.B = DefaultB(n)
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = 1 << 22
	}
	mem := cfg.Mem
	if mem == nil {
		mem = NewMem()
	}
	e := &batchEngine{g: g, bm: bm, cfg: cfg, mem: mem}
	return e.run()
}

type batchEngine struct {
	g   *graph.Graph
	bm  BatchMachine
	cfg Config
	mem *Mem
	res Result
}

func (e *batchEngine) schedule(v int32, round int) error {
	if round == Never {
		return nil
	}
	if round < 0 {
		return fmt.Errorf("sim: node %d scheduled invalid round %d", v, round)
	}
	m := e.mem
	b, ok := m.buckets[round]
	if !ok {
		heapPush(&m.roundHeap, round)
		if k := len(m.bucketPool); k > 0 {
			b = m.bucketPool[k-1][:0]
			m.bucketPool = m.bucketPool[:k-1]
		}
	}
	m.buckets[round] = append(b, v)
	return nil
}

func (e *batchEngine) run() (*Result, error) {
	n := e.g.N()
	m := e.mem
	m.grow(n)
	e.res.Awake = make([]int32, n) // escapes into the Result; never pooled

	// Leave the Mem reusable on every exit, including error paths: drain
	// pending wake buckets (a retry on the same pool must not see phantom
	// scheduled nodes, possibly from a different graph) and advance the
	// stamp epoch past every stamp this run may have written, so the next
	// run needs no O(n) clear and stale stamps can never match. No stamp
	// written so far exceeds stampBase+last+1.
	last := 0 // the last round that stamped its awake set
	defer func() {
		for r, b := range m.buckets {
			m.bucketPool = append(m.bucketPool, b)
			delete(m.buckets, r)
		}
		m.roundHeap = m.roundHeap[:0]
		m.stampBase += int64(last) + 2
	}()

	env := BatchEnv{G: e.g, N: n, B: e.cfg.B, Seed: e.cfg.Seed}
	first := e.bm.InitAll(&env)
	if len(first) != n {
		return nil, fmt.Errorf("sim: InitAll returned %d first rounds for %d nodes", len(first), n)
	}
	for v, r := range first {
		if err := e.schedule(int32(v), r); err != nil {
			return nil, err
		}
	}

	tr := e.cfg.Tracer
	for len(m.roundHeap) > 0 {
		round := heapPop(&m.roundHeap)
		awake := m.buckets[round]
		delete(m.buckets, round)
		if round >= e.cfg.MaxRounds {
			return nil, fmt.Errorf("sim: exceeded MaxRounds=%d", e.cfg.MaxRounds)
		}
		slices.Sort(awake)
		awake = dedupSorted(awake)

		var roundStart time.Time
		var snap Result
		if tr != nil {
			roundStart = time.Now()
			snap = e.res // counter snapshot; the round's deltas are diffs against it
		}

		last = round
		stamp := m.stampBase + int64(round) + 1
		for i, v := range awake {
			m.stamp[v] = stamp
			m.rank[v] = int32(i)
			e.res.Awake[v]++
		}

		// Phase 1: compose the whole awake set into one outbox.
		m.out.reset()
		e.bm.ComposeAll(round, awake, &m.out)

		// Phase 2: route the outbox (senders ascending) into one
		// receiver-grouped inbox buffer.
		if err := e.route(awake, stamp); err != nil {
			return nil, err
		}

		// Phase 3: deliver, then apply the scheduling decisions.
		if cap(m.next) < len(awake) {
			m.next = make([]int, len(awake))
		}
		next := m.next[:len(awake)]
		e.bm.DeliverAll(round, awake, Inboxes{buf: m.inbuf, off: m.inoff}, next)
		for i, v := range awake {
			if next[i] != Never && next[i] <= round {
				return nil, fmt.Errorf("sim: node %d returned wake round %d <= current %d", v, next[i], round)
			}
			if err := e.schedule(v, next[i]); err != nil {
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
		m.bucketPool = append(m.bucketPool, awake)
		e.res.Rounds = round + 1
	}
	return &e.res, nil
}

// route moves the round's outbox into its inbox buffer. Two passes: the
// first walks every message in routing order (ascending sender; per
// sender broadcasts then unicasts), rejects unicasts to non-neighbors,
// accounts traffic, drops messages to sleeping receivers, and stages the
// survivors with their destination rank; the second computes
// per-receiver offsets and scatters. Staging preserves arrival order, so
// each receiver's segment is in routing order too.
func (e *batchEngine) route(awake []int32, stamp int64) error {
	m := e.mem
	k := len(awake)
	if cap(m.cnt) < k+1 {
		m.cnt = make([]int32, k+1)
	}
	cnt := m.cnt[:k+1]
	for i := range cnt {
		cnt[i] = 0
	}
	routed := m.routed[:0]
	rdst := m.rdst[:0]

	ob := &m.out
	bi, ui := 0, 0
	for bi < len(ob.bcast) || ui < len(ob.uni) {
		// Next sender: the smaller head; its broadcasts drain before its
		// unicasts.
		var s int32
		if bi < len(ob.bcast) && (ui >= len(ob.uni) || ob.bcast[bi].From <= ob.uni[ui].From) {
			s = ob.bcast[bi].From
		} else {
			s = ob.uni[ui].From
		}
		nbrs := e.g.Neighbors(int(s))
		d := len(nbrs)
		for bi < len(ob.bcast) && ob.bcast[bi].From == s {
			mm := ob.bcast[bi]
			bi++
			if d == 0 {
				continue // no incident edges: nothing sent, nothing accounted
			}
			e.accountFanoutBatch(mm, d)
			for _, u := range nbrs {
				if m.stamp[u] == stamp {
					routed = append(routed, mm)
					rdst = append(rdst, m.rank[u])
					cnt[m.rank[u]]++
				} else {
					e.res.MsgsDropped++
				}
			}
		}
		for ui < len(ob.uni) && ob.uni[ui].From == s {
			mm := ob.uni[ui]
			to := ob.uto[ui]
			ui++
			if !e.g.HasEdge(int(s), int(to)) {
				return fmt.Errorf("sim: node %d unicast to non-neighbor %d", s, to)
			}
			e.accountFanoutBatch(mm, 1)
			if m.stamp[to] == stamp {
				routed = append(routed, mm)
				rdst = append(rdst, m.rank[to])
				cnt[m.rank[to]]++
			} else {
				e.res.MsgsDropped++
			}
		}
	}
	m.routed = routed
	m.rdst = rdst

	// Offsets, then scatter in staging order (stable per receiver).
	if cap(m.inoff) < k+1 {
		m.inoff = make([]int32, k+1)
	}
	off := m.inoff[:k+1]
	run := int32(0)
	for i := 0; i < k; i++ {
		off[i] = run
		run += cnt[i]
		cnt[i] = off[i] // reuse as write cursor
	}
	off[k] = run
	if cap(m.inbuf) < int(run) {
		m.inbuf = make([]Msg, run)
	}
	buf := m.inbuf[:run]
	for i, mm := range routed {
		r := rdst[i]
		buf[cnt[r]] = mm
		cnt[r]++
	}
	m.inbuf = buf
	m.inoff = off
	return nil
}

func (e *batchEngine) accountFanoutBatch(m Msg, copies int) {
	e.res.MsgsSent += int64(copies)
	e.res.BitsTotal += int64(copies) * int64(m.Bits)
	if int(m.Bits) > e.res.BitsMax {
		e.res.BitsMax = int(m.Bits)
	}
	if int(m.Bits) > e.cfg.B {
		if e.cfg.Strict {
			panic(fmt.Sprintf("sim: message of %d bits exceeds CONGEST budget %d", m.Bits, e.cfg.B))
		}
		e.res.Violations += int64(copies)
	}
}
