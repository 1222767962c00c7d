package sim

import (
	"fmt"
	"math"
	"slices"
	"time"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/obs"
	"github.com/energymis/energymis/internal/rng"
)

// Never is returned from Init or Deliver by a node that does not want to
// wake again.
const Never = -1

// Msg is one CONGEST message. Protocols encode their payload into Kind/A/B
// and declare its exact size in Bits; the engine verifies Bits against the
// model budget but does not interpret the payload.
type Msg struct {
	From int32  // sender node index (filled by the engine)
	Kind uint8  // protocol-defined tag
	A, B uint64 // protocol-defined payload words
	Bits int32  // declared payload size in bits (excluding From, which models the port number)
}

// Env gives a machine its static view of the network: everything a node is
// allowed to know initially (its own neighborhood and global parameter
// bounds), plus its private randomness.
type Env struct {
	Node      int // this node's index
	N         int // number of nodes (a polynomial bound on n is standard knowledge)
	Degree    int // this node's degree
	Neighbors []int32
	B         int // CONGEST message budget in bits
	Rand      *rng.Stream
}

// Machine is the per-node protocol automaton.
//
// The engine calls Init once before round 0; the return value is the first
// round in which the node is awake (Never to sleep forever). In each awake
// round r the engine calls Compose(r, out) to collect outgoing messages and
// then Deliver(r, inbox) with all messages received in r; Deliver returns
// the next awake round, which must be > r (or Never).
type Machine interface {
	Init(env *Env) int
	Compose(round int, out *Outbox)
	Deliver(round int, inbox []Msg) int
}

// Outbox collects the messages a node sends in one round. At most one
// message per neighbor per round is allowed (the CONGEST discipline);
// Broadcast counts as one message on every incident edge. Unicasts must
// address a neighbor of the sending node; both engines fail the run with
// an error otherwise.
type Outbox struct {
	node      int32
	neighbors []int32
	msgs      []addressed
	bcast     []Msg
}

type addressed struct {
	to  int32
	msg Msg
}

// Send queues a unicast message to neighbor `to`.
func (o *Outbox) Send(to int32, m Msg) {
	m.From = o.node
	o.msgs = append(o.msgs, addressed{to: to, msg: m})
}

// Broadcast queues m on every incident edge.
func (o *Outbox) Broadcast(m Msg) {
	m.From = o.node
	o.bcast = append(o.bcast, m)
}

func (o *Outbox) reset(node int32, neighbors []int32) {
	o.node = node
	o.neighbors = neighbors
	o.msgs = o.msgs[:0]
	o.bcast = o.bcast[:0]
}

// ResetFor prepares o to collect node `node`'s messages for one round.
// It exists for batch drivers outside this package (see BatchMachine) that
// execute per-node Compose logic against a scratch Outbox and then move the
// messages into a BatchOutbox with DrainTo; the engine's own paths call the
// unexported reset directly.
func (o *Outbox) ResetFor(node int32, neighbors []int32) { o.reset(node, neighbors) }

// DrainTo appends o's queued messages to a batch outbox under o's node as
// the sender, broadcasts first and unicasts second, each in call order —
// exactly the per-sender order the per-node engine's router uses, so a
// batch driver built on per-node Compose logic stays byte-identical to the
// per-node engine.
func (o *Outbox) DrainTo(out *BatchOutbox) {
	for _, m := range o.bcast {
		out.Broadcast(o.node, m)
	}
	for _, am := range o.msgs {
		out.Send(o.node, am.to, am.msg)
	}
}

// Result reports the measured complexity of one engine run.
type Result struct {
	Rounds      int     // total rounds executed (time complexity)
	Awake       []int32 // awake rounds per node (energy complexity is max)
	MsgsSent    int64   // messages put on edges by awake senders
	MsgsDropped int64   // messages whose receiver was asleep
	BitsTotal   int64   // sum of declared message sizes
	BitsMax     int     // largest single message
	Violations  int64   // messages exceeding the CONGEST budget B
}

// MaxAwake returns the energy complexity (max awake rounds over nodes).
func (r *Result) MaxAwake() int {
	m := int32(0)
	for _, a := range r.Awake {
		if a > m {
			m = a
		}
	}
	return int(m)
}

// AvgAwake returns the node-averaged awake rounds.
func (r *Result) AvgAwake() float64 {
	if len(r.Awake) == 0 {
		return 0
	}
	var s int64
	for _, a := range r.Awake {
		s += int64(a)
	}
	return float64(s) / float64(len(r.Awake))
}

// Config controls an engine run.
type Config struct {
	Seed      uint64
	MaxRounds int  // safety cap; 0 means a generous default
	B         int  // CONGEST budget in bits; 0 means 4*ceil(log2 N) (min 16)
	Strict    bool // panic on CONGEST violations instead of counting them
	// Mem supplies pooled engine buffers reused across runs (see Mem). Used
	// by the batch runtime (RunBatch); nil allocates fresh buffers.
	Mem *Mem
	// Tracer, when non-nil, receives one obs.RoundStats callback at the
	// end of every executed round, carrying that round's counter deltas
	// and wall time. Nil disables tracing at the cost of a single branch
	// per round — the hot path is otherwise untouched.
	Tracer obs.Tracer
}

// ForPhase derives the engine configuration of phase `phase` of a composed
// run: an independent seed from the root seed, everything else (budget,
// Mem pool, tracer) shared. This is the single definition of the per-phase
// seed derivation used by core and pipeline.
func (c Config) ForPhase(phase uint64) Config {
	c.Seed ^= phase * 0x9e3779b97f4a7c15
	return c
}

// DefaultB returns the default CONGEST budget for an n-node network.
func DefaultB(n int) int {
	b := 4 * log2Ceil(n)
	if b < 16 {
		b = 16
	}
	return b
}

func log2Ceil(n int) int {
	if n <= 1 {
		return 1
	}
	return int(math.Ceil(math.Log2(float64(n))))
}

// Run executes machines on g until no node is scheduled to wake, and
// returns the measured Result. machines[v] is node v's automaton; len must
// equal g.N(). An error is returned only if the MaxRounds cap is hit or a
// machine misbehaves (returns a non-increasing wake round, or unicasts to
// a node that is not its neighbor).
//
// The Config is normalized once here: the zero values of B and MaxRounds
// get their documented defaults.
func Run(g *graph.Graph, machines []Machine, cfg Config) (*Result, error) {
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
			ob.reset(v, e.g.Neighbors(int(v)))
			e.machines[v].Compose(round, ob)
		}

		// Phase 2: route (in sender order, so inboxes are sorted by sender
		// and runs are deterministic).
		for _, v := range awake {
			ob := &e.outboxes[v]
			for _, m := range ob.bcast {
				// A broadcast occupies every incident edge: one CONGEST
				// message per neighbor; account the whole fan-out at once
				// instead of per copy.
				e.accountFanout(m, len(ob.neighbors))
				for _, u := range ob.neighbors {
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

// heapPush / heapPop implement a plain int min-heap (no interface
// indirection; the schedule is on the engine's hot path).
func heapPush(h *[]int, x int) {
	*h = append(*h, x)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p] <= s[i] {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func heapPop(h *[]int) int {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	*h = s[:last]
	s = s[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(s) && s[l] < s[min] {
			min = l
		}
		if r < len(s) && s[r] < s[min] {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
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
		if e.cfg.Strict {
			panic(fmt.Sprintf("sim: message of %d bits exceeds CONGEST budget %d", m.Bits, e.cfg.B))
		}
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
		if e.cfg.Strict {
			panic(fmt.Sprintf("sim: message of %d bits exceeds CONGEST budget %d", m.Bits, e.cfg.B))
		}
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
