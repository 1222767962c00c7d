package sim

import (
	"fmt"
	"math"

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
// address a neighbor of the sending node; Run fails with an error
// otherwise.
type Outbox struct {
	node  int32
	msgs  []addressed
	bcast []Msg
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

func (o *Outbox) reset(node int32) {
	o.node = node
	o.msgs = o.msgs[:0]
	o.bcast = o.bcast[:0]
}

// drainTo appends o's queued messages to a batch outbox under o's node as
// the sender, broadcasts first and unicasts second, each in call order:
// the per-sender order RunBatch's router promises (see Inboxes).
func (o *Outbox) drainTo(out *BatchOutbox) {
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
	// Mem supplies pooled engine buffers reused across runs (see Mem).
	// Run and RunBatch both honour it; nil allocates fresh buffers.
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
// The machines execute on the batch engine (RunBatch) through a thin
// adapter, so Config normalization, scheduling, routing order, accounting,
// tracing and cfg.Mem pooling are RunBatch's.
func Run(g *graph.Graph, machines []Machine, cfg Config) (*Result, error) {
	if len(machines) != g.N() {
		return nil, fmt.Errorf("sim: %d machines for %d nodes", len(machines), g.N())
	}
	return RunBatch(g, adapt(machines), cfg)
}

// adapt wraps per-node machines as a BatchMachine. The adapter pays one
// Compose and one Deliver call per awake node per round, which native
// BatchMachines avoid; its per-run state is one Env and one rng.Stream per
// node, each held in a single flat slice.
func adapt(machines []Machine) BatchMachine {
	return &machineAdapter{machines: machines}
}

type machineAdapter struct {
	machines []Machine
	envs     []Env
	rands    []rng.Stream // per-node streams in one arena, aliased by envs
	out      Outbox       // scratch for one node's Compose, drained after each call
}

func (a *machineAdapter) InitAll(env *BatchEnv) []int {
	n := len(a.machines)
	a.envs = make([]Env, n)
	a.rands = make([]rng.Stream, n)
	first := make([]int, n)
	for v := 0; v < n; v++ {
		a.rands[v] = rng.ForNode(env.Seed, v)
		a.envs[v] = Env{
			Node:      v,
			N:         env.N,
			Degree:    env.G.Degree(v),
			Neighbors: env.G.Neighbors(v),
			B:         env.B,
			Rand:      &a.rands[v],
		}
		first[v] = a.machines[v].Init(&a.envs[v])
	}
	return first
}

func (a *machineAdapter) ComposeAll(round int, awake []int32, out *BatchOutbox) {
	ob := &a.out
	for _, v := range awake {
		ob.reset(v)
		a.machines[v].Compose(round, ob)
		ob.drainTo(out)
	}
}

func (a *machineAdapter) DeliverAll(round int, awake []int32, in Inboxes, next []int) {
	for i, v := range awake {
		next[i] = a.machines[v].Deliver(round, in.At(i))
	}
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

func dedupSorted(s []int32) []int32 {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}
