package sim

import (
	"math"
	"testing"

	"github.com/energymis/energymis/internal/graph"
)

// chatterMachine exercises every routing feature the batch runtime must
// reproduce: broadcasts and unicasts in the same round, random sleep
// schedules (messages to sleepers must drop), and an order-sensitive digest
// of the inbox so any deviation in delivery order changes the final state.
type chatterMachine struct {
	env    *Env
	rounds int
	digest uint64
	awake  int
}

func (m *chatterMachine) Init(env *Env) int {
	m.env = env
	return env.Node % 3 // staggered first wake
}

func (m *chatterMachine) Compose(round int, out *Outbox) {
	r := m.env.Rand
	if r.Bernoulli(0.6) {
		out.Broadcast(Msg{Kind: 1, A: uint64(round), Bits: 8})
	}
	for _, u := range m.env.Neighbors {
		if r.Bernoulli(0.3) {
			out.Send(u, Msg{Kind: 2, A: uint64(u), Bits: 12})
		}
	}
}

func (m *chatterMachine) Deliver(round int, inbox []Msg) int {
	for _, msg := range inbox {
		// Order-sensitive rolling hash over the full inbox sequence.
		m.digest = m.digest*0x9e3779b97f4a7c15 + uint64(msg.From)<<16 + uint64(msg.Kind)<<8 + msg.A
	}
	m.awake++
	if m.awake >= m.rounds {
		return Never
	}
	// Random sleep gap: some neighbors' messages must be dropped.
	return round + 1 + m.env.Rand.Intn(3)
}

func (m *chatterMachine) Digest() uint64 { return m.digest }

// chattyMachine sends two broadcasts plus two unicasts to every neighbor
// in each awake round — several messages per edge per round — on a
// personal wake schedule, so some rounds mix awake and asleep receivers.
// It logs every message it receives, in arrival order.
type chattyMachine struct {
	env   *Env
	log   []int64 // one chattyEntry per received message
	awake []int   // personal wake schedule
}

// chattySchedule is node v's chattyMachine wake schedule: nodes 1 mod 3
// sleep through round 1 and wake in round 2 instead.
func chattySchedule(v int) []int {
	if v%3 == 1 {
		return []int{0, 2, 3}
	}
	return []int{0, 1, 3}
}

// chattyEntry packs a received message into one chattyMachine log entry.
func chattyEntry(from int32, kind uint8, a uint64) int64 {
	return int64(from)<<32 | int64(kind)<<16 | int64(a&0xFFFF)
}

func (m *chattyMachine) Init(env *Env) int {
	m.env = env
	if len(m.awake) == 0 {
		return Never
	}
	return m.awake[0]
}

func (m *chattyMachine) Compose(round int, out *Outbox) {
	out.Broadcast(Msg{Kind: 1, A: uint64(m.env.Node)<<8 | uint64(round), Bits: 16})
	out.Broadcast(Msg{Kind: 2, A: uint64(m.env.Node), Bits: 8})
	for _, u := range m.env.Neighbors {
		out.Send(u, Msg{Kind: 3, A: uint64(u), Bits: 4})
		out.Send(u, Msg{Kind: 4, A: uint64(round), Bits: 4})
	}
}

func (m *chattyMachine) Deliver(round int, inbox []Msg) int {
	for _, msg := range inbox {
		m.log = append(m.log, chattyEntry(msg.From, msg.Kind, msg.A))
	}
	for i, r := range m.awake {
		if r == round && i+1 < len(m.awake) {
			return m.awake[i+1]
		}
	}
	return Never
}

// Digest folds the delivery log, in order, into one word.
func (m *chattyMachine) Digest() uint64 {
	var d uint64
	for _, e := range m.log {
		d = d*0x9e3779b97f4a7c15 + uint64(e)
	}
	return d
}

// digestMachine is a per-node machine whose final state is an
// order-sensitive digest of every inbox it received.
type digestMachine interface {
	Machine
	Digest() uint64
}

// engineFunc is the shape shared by Run and its reference runPerNode.
type engineFunc func(g *graph.Graph, machines []Machine, cfg Config) (*Result, error)

// runDigests runs one digestMachine per node, made by mk, on engine with
// cfg and returns every node's final digest with the run's Result.
func runDigests(t *testing.T, g *graph.Graph, mk func(v int) digestMachine, engine engineFunc, cfg Config) ([]uint64, *Result) {
	t.Helper()
	n := g.N()
	machines := make([]Machine, n)
	nodes := make([]digestMachine, n)
	for v := range machines {
		nodes[v] = mk(v)
		machines[v] = nodes[v]
	}
	res, err := engine(g, machines, cfg)
	if err != nil {
		t.Fatal(err)
	}
	digests := make([]uint64, n)
	for v := range nodes {
		digests[v] = nodes[v].Digest()
	}
	return digests, res
}

// TestBatchAdapterMatchesPerNodeEngine runs the same per-node machines
// through Run (the batch engine) and through the per-node reference loop
// runPerNode, and requires byte-identical inbox sequences and counters:
// chatterMachine mixes broadcasts, random unicasts and random sleep;
// chattyMachine puts several messages on every edge in every awake round.
func TestBatchAdapterMatchesPerNodeEngine(t *testing.T) {
	machines := []struct {
		name string
		mk   func(v int) digestMachine
	}{
		{"chatter", func(int) digestMachine { return &chatterMachine{rounds: 6} }},
		{"chatty", func(v int) digestMachine { return &chattyMachine{awake: chattySchedule(v)} }},
	}
	graphs := []*graph.Graph{
		graph.GNP(200, 0.05, 9),
		graph.GNP(40, 0.2, 9),
		graph.Cycle(31),
		graph.Star(40),
		graph.FromEdges(6, [][2]int{{0, 1}}), // isolated nodes
	}
	for _, mc := range machines {
		for gi, g := range graphs {
			refDig, refRes := runDigests(t, g, mc.mk, runPerNode, Config{Seed: 42})
			dig, res := runDigests(t, g, mc.mk, Run, Config{Seed: 42})
			for v := range refDig {
				if dig[v] != refDig[v] {
					t.Fatalf("%s graph %d: node %d inbox digest %x, runPerNode %x",
						mc.name, gi, v, dig[v], refDig[v])
				}
			}
			if res.Rounds != refRes.Rounds || res.MsgsSent != refRes.MsgsSent ||
				res.MsgsDropped != refRes.MsgsDropped || res.BitsTotal != refRes.BitsTotal ||
				res.BitsMax != refRes.BitsMax {
				t.Fatalf("%s graph %d: counters differ\n runPerNode: %+v\n Run:        %+v",
					mc.name, gi, refRes, res)
			}
			for v := range res.Awake {
				if res.Awake[v] != refRes.Awake[v] {
					t.Fatalf("%s graph %d: Awake[%d] = %d, runPerNode %d",
						mc.name, gi, v, res.Awake[v], refRes.Awake[v])
				}
			}
		}
	}
}

// TestParallelPreservesMultiMessageOrder checks the delivery order of Run
// and of its reference runPerNode, with several messages on one edge in
// one round, against the order they promise: each inbox is grouped by
// sender in ascending id, and each sender's messages arrive broadcasts
// first and unicasts second, each in Compose call order. A sender's
// messages reach only receivers awake in the round they were sent.
func TestParallelPreservesMultiMessageOrder(t *testing.T) {
	g := graph.GNP(40, 0.2, 9)
	n := g.N()
	awakeIn := func(v, round int) bool {
		for _, r := range chattySchedule(v) {
			if r == round {
				return true
			}
		}
		return false
	}
	want := make([][]int64, n)
	for v := 0; v < n; v++ {
		for _, round := range chattySchedule(v) {
			for u := 0; u < n; u++ {
				if !g.HasEdge(u, v) || !awakeIn(u, round) {
					continue
				}
				from := int32(u)
				want[v] = append(want[v],
					chattyEntry(from, 1, uint64(u)<<8|uint64(round)),
					chattyEntry(from, 2, uint64(u)),
					chattyEntry(from, 3, uint64(v)),
					chattyEntry(from, 4, uint64(round)))
			}
		}
	}
	for _, engine := range []struct {
		name string
		run  engineFunc
	}{{"Run", Run}, {"runPerNode", runPerNode}} {
		machines := make([]Machine, n)
		for v := range machines {
			machines[v] = &chattyMachine{awake: chattySchedule(v)}
		}
		if _, err := engine.run(g, machines, Config{Seed: 2}); err != nil {
			t.Fatal(err)
		}
		for v := range machines {
			got := machines[v].(*chattyMachine).log
			if len(got) != len(want[v]) {
				t.Fatalf("%s node %d: received %d messages, want %d", engine.name, v, len(got), len(want[v]))
			}
			for i := range got {
				if got[i] != want[v][i] {
					t.Fatalf("%s node %d: message %d is %x, want %x", engine.name, v, i, got[i], want[v][i])
				}
			}
		}
	}
}

// badWakeBatch schedules a non-increasing wake round, which must error the
// run exactly like badMachine does through Run.
type badWakeBatch struct{}

func (badWakeBatch) InitAll(env *BatchEnv) []int {
	first := make([]int, env.N)
	return first // everyone wakes at round 0
}
func (badWakeBatch) ComposeAll(round int, awake []int32, out *BatchOutbox) {}
func (badWakeBatch) DeliverAll(round int, awake []int32, in Inboxes, next []int) {
	for i := range next {
		next[i] = round // not > round: protocol error
	}
}

func TestBatchRejectsNonIncreasingWake(t *testing.T) {
	g := graph.Cycle(4)
	if _, err := RunBatch(g, badWakeBatch{}, Config{}); err == nil {
		t.Fatal("expected error for non-increasing wake round")
	}
}

func TestBatchEmptyGraph(t *testing.T) {
	g := graph.FromEdges(0, nil)
	res, err := RunBatch(g, badWakeBatch{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 0 || res.MsgsSent != 0 {
		t.Fatalf("empty graph: %+v", res)
	}
}

// pingBatch is a minimal native batch machine: every node broadcasts for a
// fixed number of rounds. Its state arrays are sized once and reused across
// runs, so a warm run through a pooled Mem measures the engine's own
// steady-state allocation behavior.
type pingBatch struct {
	g      *graph.Graph
	rounds int
	left   []int32
	first  []int
}

func (p *pingBatch) InitAll(env *BatchEnv) []int {
	if p.left == nil {
		p.left = make([]int32, env.N)
		p.first = make([]int, env.N)
	}
	for v := range p.left {
		p.left[v] = int32(p.rounds)
		p.first[v] = 0
	}
	return p.first
}

func (p *pingBatch) ComposeAll(round int, awake []int32, out *BatchOutbox) {
	for _, v := range awake {
		out.Broadcast(v, Msg{Kind: 1, A: uint64(v), Bits: 8})
	}
}

func (p *pingBatch) DeliverAll(round int, awake []int32, in Inboxes, next []int) {
	for i, v := range awake {
		p.left[v]--
		if p.left[v] <= 0 {
			next[i] = Never
		} else {
			next[i] = round + 1
		}
	}
}

// TestBatchSteadyStateAllocs asserts the headline property of the batch
// runtime: with a native BatchMachine and a warm Mem pool, a whole run
// performs only O(1) allocations (the escaping Result), independent of
// nodes, rounds, and traffic.
func TestBatchSteadyStateAllocs(t *testing.T) {
	g := graph.GNP(400, 10.0/400, 3)
	mem := NewMem()
	pb := &pingBatch{g: g, rounds: 5}
	run := func() {
		if _, err := RunBatch(g, pb, Config{Seed: 7, Mem: mem}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the pool
	allocs := testing.AllocsPerRun(5, run)
	// Result.Awake escapes (1 alloc) plus a handful of runtime incidentals;
	// anything growing with n or traffic is a pooling regression.
	if allocs > 8 {
		t.Fatalf("warm native batch run allocated %.0f times, want O(1)", allocs)
	}
}

// TestBatchAdapterAllocsBounded bounds Run's adapter path on a pooled Mem:
// it pays per-run init allocations (the Env and rng.Stream arenas, outbox
// growth) but nothing per round beyond them.
func TestBatchAdapterAllocsBounded(t *testing.T) {
	g := graph.GNP(400, 10.0/400, 3)
	n := g.N()
	machines := make([]Machine, n)
	nodes := make([]chatterMachine, n)
	mem := NewMem()
	run := func() {
		for v := range nodes {
			nodes[v] = chatterMachine{rounds: 4}
			machines[v] = &nodes[v]
		}
		if _, err := Run(g, machines, Config{Seed: 7, Mem: mem}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	allocs := testing.AllocsPerRun(3, run)
	if allocs > float64(n)*8 {
		t.Fatalf("warm adapter run allocated %.0f times (n=%d)", allocs, n)
	}
}

// strayBatch is pingBatch plus, in round `at`, one unicast from the first
// awake node to a node that is not its neighbor.
type strayBatch struct {
	pingBatch
	at int
}

func (p *strayBatch) ComposeAll(round int, awake []int32, out *BatchOutbox) {
	p.pingBatch.ComposeAll(round, awake, out)
	if round != p.at {
		return
	}
	v := awake[0]
	for u := int32(0); int(u) < p.g.N(); u++ {
		if u != v && !p.g.HasEdge(int(v), int(u)) {
			out.Send(v, u, Msg{Kind: 2, Bits: 8})
			return
		}
	}
}

// TestBatchMemReuseAfterError: a run that errors mid-flight (the MaxRounds
// cap, or a unicast to a non-neighbor), through RunBatch or through Run's
// per-node machines, must leave a pooled Mem clean — no phantom scheduled
// nodes, no stale awake stamps — so a subsequent run on a different
// (smaller) graph behaves exactly like one on fresh buffers. The clean
// run lets nodes sleep while neighbors send, so a stale awake stamp would
// deliver a message that must be dropped.
func TestBatchMemReuseAfterError(t *testing.T) {
	big := graph.GNP(300, 0.05, 1)
	stray := int32(1) // the first node that is not node 0's neighbor
	for big.HasEdge(0, int(stray)) {
		stray++
	}
	machines := func(mk func() Machine) []Machine {
		ms := make([]Machine, big.N())
		for v := range ms {
			ms[v] = mk()
		}
		return ms
	}
	failing := []struct {
		name string
		run  func(mem *Mem) error
	}{
		{"max-rounds", func(mem *Mem) error {
			_, err := RunBatch(big, &pingBatch{g: big, rounds: 50}, Config{Mem: mem, MaxRounds: 5})
			return err
		}},
		{"non-neighbor", func(mem *Mem) error {
			_, err := RunBatch(big, &strayBatch{pingBatch: pingBatch{g: big, rounds: 50}, at: 3}, Config{Mem: mem})
			return err
		}},
		{"run/max-rounds", func(mem *Mem) error {
			// Staggered wakes that never stop: nodes stay scheduled past
			// the cap, so the error path must drain their wake buckets.
			_, err := Run(big, machines(func() Machine { return &chatterMachine{rounds: math.MaxInt} }), Config{Mem: mem, MaxRounds: 5})
			return err
		}},
		{"run/non-neighbor", func(mem *Mem) error {
			_, err := Run(big, machines(func() Machine { return &nonNeighborSender{to: stray} }), Config{Mem: mem})
			return err
		}},
	}
	small := graph.Cycle(10)
	chatter := func(int) digestMachine { return &chatterMachine{rounds: 6} }
	freshDig, fresh := runDigests(t, small, chatter, Run, Config{Seed: 5})
	for _, f := range failing {
		mem := NewMem()
		if err := f.run(mem); err == nil {
			t.Fatalf("%s: expected an error", f.name)
		}
		dig, pooled := runDigests(t, small, chatter, Run, Config{Seed: 5, Mem: mem})
		if pooled.Rounds != fresh.Rounds || pooled.MsgsSent != fresh.MsgsSent ||
			pooled.MsgsDropped != fresh.MsgsDropped || pooled.BitsTotal != fresh.BitsTotal {
			t.Fatalf("%s: post-error pooled run differs\n fresh:  %+v\n pooled: %+v", f.name, fresh, pooled)
		}
		for v := range pooled.Awake {
			if pooled.Awake[v] != fresh.Awake[v] || dig[v] != freshDig[v] {
				t.Fatalf("%s: post-error pooled node %d: awake %d, digest %x; fresh %d, %x",
					f.name, v, pooled.Awake[v], dig[v], fresh.Awake[v], freshDig[v])
			}
		}
	}
}
