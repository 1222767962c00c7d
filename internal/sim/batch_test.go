package sim

import (
	"fmt"
	"math"
	"slices"
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
	m.digest = foldInbox(m.digest, inbox)
	m.awake++
	if m.awake >= m.rounds {
		return Never
	}
	// Random sleep gap: some neighbors' messages must be dropped.
	return round + 1 + m.env.Rand.Intn(3)
}

func (m *chatterMachine) Digest() uint64 { return m.digest }

// foldInbox folds an inbox, in order, into a rolling digest: any change
// in delivery order changes the result.
func foldInbox(d uint64, inbox []Msg) uint64 {
	for _, msg := range inbox {
		d = d*0x9e3779b97f4a7c15 + uint64(msg.From)<<16 + uint64(msg.Kind)<<8 + msg.A ^ msg.B
	}
	return d
}

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

// wakeGaps are wakeMachine's sleep lengths, taken in turn: around the
// wake calendar's ring size and well past it, so wakes go through the
// ring, the far heap, and the drain from one to the other.
var wakeGaps = []int{1, calSize - 1, calSize, calSize + 1, 2, 5 * calSize, 3}

// wakeMachine chats like chatterMachine but sleeps for wakeGaps in turn,
// starting at a gap and a first round set by its node. Nodes whose wakes
// were scheduled in different rounds — some straight into the ring, some
// through the far heap — share wake rounds, and reach the round's bucket
// out of ascending order, so some buckets need their sort.
type wakeMachine struct {
	env    *Env
	gap    int // index of the next gap in wakeGaps
	left   int // awake rounds left
	digest uint64
}

func (m *wakeMachine) Init(env *Env) int {
	m.env = env
	m.gap = env.Node % len(wakeGaps)
	return env.Node % 3
}

func (m *wakeMachine) Compose(round int, out *Outbox) {
	r := m.env.Rand
	if r.Bernoulli(0.5) {
		out.Broadcast(Msg{Kind: 1, A: uint64(round), Bits: 8})
	}
	for _, u := range m.env.Neighbors {
		if r.Bernoulli(0.2) {
			out.Send(u, Msg{Kind: 2, A: uint64(u), Bits: 12})
		}
	}
}

func (m *wakeMachine) Deliver(round int, inbox []Msg) int {
	m.digest = foldInbox(m.digest, inbox)
	m.left--
	if m.left <= 0 {
		return Never
	}
	g := wakeGaps[m.gap]
	m.gap = (m.gap + 1) % len(wakeGaps)
	return round + g
}

func (m *wakeMachine) Digest() uint64 { return m.digest }

// bcastMachine only broadcasts, so its rounds have no unicasts: in even
// rounds every awake node broadcasts, in odd rounds only nodes 0 mod 5 do
// (the router pushes). Nodes 0 mod 3 broadcast twice, except in rounds 0
// mod 4, where every sender broadcasts one bit once and the router pulls;
// in rounds 2 mod 4 the doubles send it back to push. Random sleep gaps
// leave some receivers asleep. It records the rounds it was awake in.
type bcastMachine struct {
	env    *Env
	left   int
	rounds []int
	digest uint64
}

// bcastSends reports how many broadcasts bcastMachine node v sends in
// round r.
func bcastSends(v, r int) int {
	if r%2 == 1 && v%5 != 0 {
		return 0
	}
	if v%3 == 0 && r%4 != 0 {
		return 2
	}
	return 1
}

func (m *bcastMachine) Init(env *Env) int {
	m.env = env
	return env.Node % 4
}

func (m *bcastMachine) Compose(round int, out *Outbox) {
	switch bcastSends(m.env.Node, round) {
	case 2:
		out.Broadcast(Msg{Kind: 1, A: uint64(round), Bits: 8})
		out.Broadcast(Msg{Kind: 2, A: uint64(round), Bits: 8})
	case 1:
		out.Broadcast(Msg{Kind: 1, A: uint64(m.env.Node+round/4) & 1, Bits: 1})
	}
}

func (m *bcastMachine) Deliver(round int, inbox []Msg) int {
	m.rounds = append(m.rounds, round)
	m.digest = foldInbox(m.digest, inbox)
	m.left--
	if m.left <= 0 {
		return Never
	}
	return round + 1 + m.env.Rand.Intn(3)
}

func (m *bcastMachine) Digest() uint64 { return m.digest }

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
// chattyMachine puts several messages on every edge in every awake round;
// wakeMachine sleeps across the wake calendar's ring and far heap;
// bcastMachine mixes pulled and pushed broadcast rounds.
func TestBatchAdapterMatchesPerNodeEngine(t *testing.T) {
	machines := []struct {
		name string
		mk   func(v int) digestMachine
	}{
		{"chatter", func(int) digestMachine { return &chatterMachine{rounds: 6} }},
		{"chatty", func(v int) digestMachine { return &chattyMachine{awake: chattySchedule(v)} }},
		{"wake", func(int) digestMachine { return &wakeMachine{left: 8} }},
		{"bcast", func(int) digestMachine { return &bcastMachine{left: 8} }},
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
			if err := sameResult(res, refRes); err != nil {
				t.Fatalf("%s graph %d: %v", mc.name, gi, err)
			}
		}
	}
}

// sameResult reports how a Result differs from the reference's, or nil.
func sameResult(got, ref *Result) error {
	if got.Rounds != ref.Rounds || got.MsgsSent != ref.MsgsSent ||
		got.MsgsDropped != ref.MsgsDropped || got.BitsTotal != ref.BitsTotal ||
		got.BitsMax != ref.BitsMax || got.Violations != ref.Violations {
		return fmt.Errorf("counters differ\n runPerNode: %+v\n Run:        %+v", ref, got)
	}
	for v := range got.Awake {
		if got.Awake[v] != ref.Awake[v] {
			return fmt.Errorf("Awake[%d] = %d, runPerNode %d", v, got.Awake[v], ref.Awake[v])
		}
	}
	return nil
}

// TestCalendarOrdersMixedBuckets fills calendar buckets out of ascending
// order, from different source rounds, on an 8192-node cycle (128 bitmap
// words), and requires Run to match runPerNode. Each bucket below is
// filled out of order, so take orders it through its bitmap:
//
//   - round 200, dense: nodes 500..998 (scheduled in round 10) before
//     2..499 (round 20) and 0 and 1 (round 150);
//   - round 300, sparse: node 999 (round 100) before 0 and 1 (round 200),
//     with round 200's nodes 2..998 left out of a span they fill;
//   - round 400, spanning all 128 words: node 8191 (round 250) before 0
//     and 1 (round 300);
//   - round 500, whose lowest node is in word 46: node 5000 (round 350)
//     before 3001 and 4500 (round 360);
//   - round 600, filling word 100 exactly: nodes 6432..6463 (round 450)
//     before 6400..6431 (round 460);
//   - round 700, which merges the lane with the ring: nodes 7000..7009,
//     awake in round 699, continue to round 700 through the lane, and the
//     ring slot, ascending by itself, adds the lower nodes 6900 (a far
//     wake from round 10, drained into the ring in round 450) and
//     6990..6999 (round 650).
//
// Every other wake above is scheduled less than calSize rounds ahead, so
// it goes straight into the ring in the order scheduled (the far heap
// drains in ascending order). Node 7 sleeps from round 10 to far past the
// ring, round 10+5*calSize, and nodes 7000..7009 first wake in round 699,
// through the far heap.
func TestCalendarOrdersMixedBuckets(t *testing.T) {
	g := graph.Cycle(8192)
	schedule := func(v int) []int {
		switch {
		case v == 999:
			return []int{100, 300}
		case v <= 1:
			return []int{150, 200, 300, 400}
		case v == 7:
			return []int{10, 10 + 5*calSize}
		case v < 500:
			return []int{20, 200}
		case v < 999:
			return []int{10, 200}
		case v == 8191:
			return []int{250, 400}
		case v == 5000:
			return []int{350, 500}
		case v == 3001 || v == 4500:
			return []int{360, 500}
		case v >= 6432 && v < 6464:
			return []int{450, 600}
		case v >= 6400 && v < 6432:
			return []int{460, 600}
		case v == 6900:
			return []int{10, 700}
		case v >= 6990 && v < 7000:
			return []int{650, 700}
		case v >= 7000 && v < 7010:
			return []int{699, 700}
		}
		return nil
	}
	mk := func(v int) digestMachine { return &chattyMachine{awake: schedule(v)} }
	refDig, ref := runDigests(t, g, mk, runPerNode, Config{Seed: 3})
	dig, res := runDigests(t, g, mk, Run, Config{Seed: 3})
	for v := range refDig {
		if dig[v] != refDig[v] {
			t.Fatalf("node %d inbox digest %x, runPerNode %x", v, dig[v], refDig[v])
		}
	}
	if err := sameResult(res, ref); err != nil {
		t.Fatal(err)
	}
}

// roundKinds wraps a BatchMachine and records, per round, whether the
// engine delivered that round's inboxes pulled.
type roundKinds struct {
	BatchMachine
	pulled map[int]bool
}

func (k *roundKinds) DeliverAll(round int, awake []int32, in Inboxes, next []int) {
	k.pulled[round] = in.p != nil
	k.BatchMachine.DeliverAll(round, awake, in, next)
}

// TestPullAndPushRoundsInOneRun checks that the engine pulls exactly the
// rounds of bcastMachine, which the engine differential above holds to
// runPerNode, that are dense one-bit rounds: at least half as many
// broadcasts as awake nodes and one one-bit broadcast per sender. Every
// other round is pushed: a dense round with a sender broadcasting twice
// (8 bits each), and a sparse round with fewer, but at least one,
// broadcast. The run has each kind.
func TestPullAndPushRoundsInOneRun(t *testing.T) {
	g := graph.GNP(200, 0.05, 9)
	nodes := make([]*bcastMachine, g.N())
	machines := make([]Machine, g.N())
	for v := range nodes {
		nodes[v] = &bcastMachine{left: 8}
		machines[v] = nodes[v]
	}
	kinds := &roundKinds{BatchMachine: adapt(machines), pulled: map[int]bool{}}
	if _, err := RunBatch(g, kinds, Config{Seed: 42}); err != nil {
		t.Fatal(err)
	}
	awake := map[int]int{}
	sending := map[int]int{}
	doubles := map[int]bool{}
	for v, m := range nodes {
		for _, r := range m.rounds {
			awake[r]++
			sending[r] += bcastSends(v, r)
			doubles[r] = doubles[r] || bcastSends(v, r) == 2
		}
	}
	if len(kinds.pulled) != len(awake) {
		t.Fatalf("DeliverAll ran in %d rounds, nodes were awake in %d", len(kinds.pulled), len(awake))
	}
	var pull, dense, sparse int
	for r, a := range awake {
		b := sending[r]
		oneBit := 2*b >= a && !doubles[r]
		if kinds.pulled[r] != oneBit {
			t.Fatalf("round %d (%d awake, %d broadcasts, double %v): pulled %v, want %v",
				r, a, b, doubles[r], kinds.pulled[r], oneBit)
		}
		switch {
		case oneBit:
			pull++
		case 2*b >= a:
			dense++
		case b > 0:
			sparse++
		}
	}
	if pull == 0 || dense == 0 || sparse == 0 {
		t.Fatalf("%d pulled rounds, %d dense rounds with a double broadcast and %d sparse rounds; want each", pull, dense, sparse)
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

// TestBatchRejectsNonIncreasingWake: a wake round not after the current
// one fails the run, and so does a first round below 0 other than Never.
func TestBatchRejectsNonIncreasingWake(t *testing.T) {
	g := graph.Cycle(4)
	if _, err := RunBatch(g, badWakeBatch{}, Config{}); err == nil {
		t.Fatal("expected error for non-increasing wake round")
	}
	negative := &scriptBatch{wake: func(v int) int { return -2 * (v % 2) }, compose: pingAll}
	const want = "sim: node 1 scheduled invalid round -2"
	if _, err := RunBatch(g, negative, Config{}); err == nil || err.Error() != want {
		t.Fatalf("first round -2: err = %v, want %q", err, want)
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
	pingAll(round, awake, out)
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

// scriptBatch is a native batch machine driven by functions: wake gives
// node v's first awake round, after which the node wakes every round up
// to and including round last, and compose fills each round's outbox.
// DeliverAll reads every inbox as read says: readNone, readAt or
// readCount.
type scriptBatch struct {
	wake    func(v int) int
	last    int
	compose func(round int, awake []int32, out *BatchOutbox)
	read    int
}

func (s *scriptBatch) InitAll(env *BatchEnv) []int {
	first := make([]int, env.N)
	for v := range first {
		first[v] = s.wake(v)
	}
	return first
}

func (s *scriptBatch) ComposeAll(round int, awake []int32, out *BatchOutbox) {
	s.compose(round, awake, out)
}

func (s *scriptBatch) DeliverAll(round int, awake []int32, in Inboxes, next []int) {
	for i := range next {
		switch s.read {
		case readAt:
			in.At(i)
		case readCount:
			in.Count(i)
		}
		next[i] = Never
		if round < s.last {
			next[i] = round + 1
		}
	}
}

// TestBatchRejectsRogueSenders: only the round's awake nodes may send, to
// their neighbors, and ComposeAll must group their messages in awake
// order. On the path 0-1-2 with node 2 asleep, RunBatch fails the run with
// a named error when node 2 (or a node that does not exist) sends, when
// node 1's messages come before node 0's — in a broadcast-only round,
// which the router tries to pull (pull hands a round it cannot take to
// push, which names the error), and in a round with a unicast, which it
// pushes — or when node 0 unicasts to node 2. The router validates while
// it routes, not when DeliverAll reads: each case fails alike whether
// DeliverAll reads every inbox with At, only counts them (a pushed round
// then writes no copy) or reads none.
func TestBatchRejectsRogueSenders(t *testing.T) {
	g := graph.Path(3)
	msg := Msg{Kind: 1, Bits: 8}
	const asleep2 = "sim: node 2 sent a message in round 0 while asleep"
	const misordered = "sim: node 0's messages follow node 1's, out of awake order"
	cases := []struct {
		name    string
		compose func(out *BatchOutbox)
		want    string // "" for a valid outbox
	}{
		{"valid/pull", func(out *BatchOutbox) { out.Broadcast(0, msg); out.Broadcast(1, msg) }, ""},
		{"valid/push", func(out *BatchOutbox) { out.Broadcast(1, msg); out.Send(0, 1, msg) }, ""},
		{"asleep/pull", func(out *BatchOutbox) { out.Broadcast(2, msg) }, asleep2},
		{"asleep/push", func(out *BatchOutbox) { out.Send(0, 1, msg); out.Broadcast(2, msg) }, asleep2},
		{"asleep/unicast", func(out *BatchOutbox) { out.Send(2, 1, msg) }, asleep2},
		{"no-such-node", func(out *BatchOutbox) { out.Broadcast(7, msg) }, "sim: node 7 sent a message in round 0 while asleep"},
		{"negative-node", func(out *BatchOutbox) { out.Broadcast(-1, msg) }, "sim: node -1 sent a message in round 0 while asleep"},
		{"misordered/pull", func(out *BatchOutbox) { out.Broadcast(1, msg); out.Broadcast(0, msg) }, misordered},
		{"misordered/push", func(out *BatchOutbox) {
			out.Broadcast(1, msg)
			out.Broadcast(0, msg)
			out.Send(1, 0, msg)
		}, misordered},
		{"split-group/pull", func(out *BatchOutbox) {
			out.Broadcast(0, msg)
			out.Broadcast(1, msg)
			out.Broadcast(0, msg)
		}, misordered},
		{"non-neighbor", func(out *BatchOutbox) { out.Broadcast(0, msg); out.Send(0, 2, msg) }, "sim: node 0 unicast to non-neighbor 2"},
	}
	reads := map[int]string{readAt: "At", readCount: "Count", readNone: "none"}
	for read, how := range reads {
		for _, c := range cases {
			bm := &scriptBatch{
				wake: func(v int) int {
					if v < 2 {
						return 0
					}
					return Never
				},
				compose: func(_ int, _ []int32, out *BatchOutbox) { c.compose(out) },
				read:    read,
			}
			res, err := RunBatch(g, bm, Config{})
			switch {
			case c.want == "" && err != nil:
				t.Errorf("%s, read %s: unexpected error %v", c.name, how, err)
			case c.want != "" && (err == nil || err.Error() != c.want):
				t.Errorf("%s, read %s: err = %v, want %q", c.name, how, err, c.want)
			case c.want == "" && (res.MsgsSent != 3 || res.MsgsDropped != 1 || res.Awake[2] != 0):
				t.Errorf("%s, read %s: sent %d, dropped %d, Awake[2] = %d; want 3, 1, 0",
					c.name, how, res.MsgsSent, res.MsgsDropped, res.Awake[2])
			}
		}
	}
}

// TestBatchMemReuseAfterError: a run that errors mid-flight (the MaxRounds
// cap, with or without wakes pending in the far heap, a unicast to a
// non-neighbor, a message from a sleeping or misordered sender, a
// non-increasing wake after lower nodes have joined the lane, or an
// invalid first round after round 0's nodes have filled the lane),
// through RunBatch or through Run's per-node machines, must leave a pooled
// Mem clean — no phantom scheduled nodes, no stale awake positions, no
// pulled-round sender bytes or read flags — so a subsequent run on a
// different (smaller) graph behaves exactly like one on fresh buffers.
// The clean runs let nodes sleep while neighbors send, so a stale awake
// position would deliver a message that must be dropped, and one of them
// reads part of its inboxes in pulled rounds. A panicking DeliverAll,
// recovered by the caller, must leave it clean too: in a pulled round, and
// in a pushed round before and after its first At. So must a round that
// pull gives up after storing some senders' bytes. After every failing
// run and every clean one, each sender byte and read flag is zero.
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
		{"max-rounds/far", func(mem *Mem) error {
			// Odd nodes first wake far past the cap: the run fails with
			// their wakes still in the far heap.
			_, err := RunBatch(big, &scriptBatch{wake: farFirst, last: math.MaxInt, compose: pingAll}, Config{Mem: mem, MaxRounds: 5})
			return err
		}},
		{"asleep-sender", func(mem *Mem) error {
			// In round 3, odd node 1 — asleep in the far heap — sends.
			_, err := RunBatch(big, &scriptBatch{wake: farFirst, last: 50, compose: func(round int, awake []int32, out *BatchOutbox) {
				pingAll(round, awake, out)
				if round == 3 {
					out.Broadcast(1, Msg{Kind: 2, Bits: 8})
				}
			}}, Config{Mem: mem})
			return err
		}},
		{"deliver-panic", func(mem *Mem) error {
			// Round 3 is pulled, and DeliverAll panics after reading a
			// few inboxes: the sender bytes and read flags are set.
			return recovered(mem, big, &panicBatch{pingBatch: pingBatch{g: big, rounds: 50}, at: 3})
		}},
		{"deliver-panic/push-before-at", func(mem *Mem) error {
			// Round 3 is pushed, and DeliverAll panics after counting a
			// few inboxes: the round's counts and positions are set, and
			// no copy is written.
			return recovered(mem, big, &panicBatch{pingBatch: pingBatch{g: big, rounds: 50}, at: 3, wide: true, count: true})
		}},
		{"deliver-panic/push-after-at", func(mem *Mem) error {
			// Round 3 is pushed, and DeliverAll panics after reading a
			// few inboxes with At: the round's copies are written.
			return recovered(mem, big, &panicBatch{pingBatch: pingBatch{g: big, rounds: 50}, at: 3, wide: true})
		}},
		{"pull-gives-up", func(mem *Mem) error {
			// Round 3 is dense and one-bit but for its middle sender's
			// A of 2: pull stops there, after storing the lower senders'
			// bytes, and push routes the round. The lower half then
			// sleeps, the upper half pulls rounds 4 and 5 alone, and the
			// run hits the cap.
			b := &badBitBatch{pingBatch: pingBatch{g: big, rounds: 50}, at: 3}
			_, err := RunBatch(big, b, Config{Mem: mem, MaxRounds: 6})
			if !b.pushed {
				t.Fatal("pull-gives-up: round 3 was pulled")
			}
			return err
		}},
		{"bad-wake-after-lane", func(mem *Mem) error {
			// In round 3 every node but the last continues to round 4,
			// joining the lane, before the last returns round 3.
			_, err := RunBatch(big, &laneThenBadWake{pingBatch: pingBatch{g: big, rounds: 50}, at: 3}, Config{Mem: mem})
			return err
		}},
		{"misordered-sender", func(mem *Mem) error {
			_, err := RunBatch(big, &scriptBatch{wake: farFirst, last: 50, compose: func(round int, awake []int32, out *BatchOutbox) {
				if round != 3 {
					pingAll(round, awake, out)
					return
				}
				for i := len(awake) - 1; i >= 0; i-- {
					out.Broadcast(awake[i], Msg{Kind: 1, Bits: 8})
				}
			}}, Config{Mem: mem})
			return err
		}},
		{"bad-first-round-after-lane", func(mem *Mem) error {
			// InitAll wakes nodes 0..k at round 0, which fills the lane,
			// and then gives node k+1 the first round -2.
			const k = 150
			wake := func(v int) int {
				switch {
				case v <= k:
					return 0
				case v == k+1:
					return -2
				}
				return 1 + v%3
			}
			_, err := RunBatch(big, &scriptBatch{wake: wake, last: 50, compose: pingAll}, Config{Mem: mem})
			if want := fmt.Sprintf("sim: node %d scheduled invalid round -2", k+1); err == nil || err.Error() != want {
				t.Fatalf("bad-first-round-after-lane: err = %v, want %q", err, want)
			}
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
	pings := func(int) digestMachine { return &wakeMachine{left: 4} }
	freshPings, freshPingRes := runDigests(t, small, pings, Run, Config{Seed: 5})
	chatter := func(int) digestMachine { return &chatterMachine{rounds: 6} }
	freshDig, fresh := runDigests(t, small, chatter, Run, Config{Seed: 5})
	partial := partialRule{pb: 0.9, pskip: 0.3, preread: 0.3, rounds: 8}
	freshPartial := &partialBatch{partialRule: partial}
	freshPartialRes, err := RunBatch(small, freshPartial, Config{Seed: 5})
	if err != nil || freshPartial.pulled == 0 {
		t.Fatalf("fresh partial-read run: %d pulled rounds, err %v", freshPartial.pulled, err)
	}
	for _, f := range failing {
		mem := NewMem()
		if err := f.run(mem); err == nil {
			t.Fatalf("%s: expected an error", f.name)
		}
		if err := pullResidue(mem); err != nil {
			t.Fatalf("%s: %v", f.name, err)
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
		// A second clean run, through the far heap, on the same pool.
		dig, pooled = runDigests(t, small, pings, Run, Config{Seed: 5, Mem: mem})
		if err := sameResult(pooled, freshPingRes); err != nil {
			t.Fatalf("%s: post-error pooled far-wake run: %v", f.name, err)
		}
		for v := range dig {
			if dig[v] != freshPings[v] {
				t.Fatalf("%s: post-error pooled far-wake run: node %d digest %x, fresh %x", f.name, v, dig[v], freshPings[v])
			}
		}
		// A third, native and mostly pulled, that reads part of its inboxes.
		pb := &partialBatch{partialRule: partial}
		pooled, err := RunBatch(small, pb, Config{Seed: 5, Mem: mem})
		if err != nil {
			t.Fatalf("%s: post-error pooled partial-read run: %v", f.name, err)
		}
		if err := sameResult(pooled, freshPartialRes); err != nil {
			t.Fatalf("%s: post-error pooled partial-read run: %v", f.name, err)
		}
		if !slices.Equal(pb.digest, freshPartial.digest) {
			t.Fatalf("%s: post-error pooled partial-read run: digests %x, fresh %x", f.name, pb.digest, freshPartial.digest)
		}
		if err := pullResidue(mem); err != nil {
			t.Fatalf("%s: after the clean runs: %v", f.name, err)
		}
	}
}

// pullResidue names the first pulled-round sender byte or read flag of
// mem that is set: between pulled rounds, and after every run, all are
// zero.
func pullResidue(mem *Mem) error {
	for v, f := range mem.pull.from {
		if f != 0 {
			return fmt.Errorf("node %d's sender byte is %#x", v, f)
		}
	}
	for i, read := range mem.pull.read[:cap(mem.pull.read)] {
		if read {
			return fmt.Errorf("read flag %d is set", i)
		}
	}
	return nil
}

// badBitBatch is pingBatch whose round at is dense and one-bit except
// that the middle awake node broadcasts an A of 2, so pull gives up after
// storing the lower senders' bytes and push routes the round. The lower
// half of round at's awake set then sleeps for good.
type badBitBatch struct {
	pingBatch
	at     int
	pushed bool // round at was pushed
}

func (p *badBitBatch) ComposeAll(round int, awake []int32, out *BatchOutbox) {
	if round != p.at {
		pingAll(round, awake, out)
		return
	}
	for i, v := range awake {
		m := Msg{Kind: 1, A: uint64(v) & 1, Bits: 1}
		if i == len(awake)/2 {
			m.A = 2
		}
		out.Broadcast(v, m)
	}
}

func (p *badBitBatch) DeliverAll(round int, awake []int32, in Inboxes, next []int) {
	p.pingBatch.DeliverAll(round, awake, in, next)
	if round == p.at {
		p.pushed = in.p == nil
		for i := range next[:len(next)/2] {
			next[i] = Never
		}
	}
}

// laneThenBadWake is pingBatch whose last awake node returns the current
// round as its next wake in round at, after every lower node of the round
// has returned round at+1.
type laneThenBadWake struct {
	pingBatch
	at int
}

func (p *laneThenBadWake) DeliverAll(round int, awake []int32, in Inboxes, next []int) {
	p.pingBatch.DeliverAll(round, awake, in, next)
	if round == p.at {
		next[len(next)-1] = round
	}
}

// recovered runs bm on g with mem and returns the error the run failed
// with, or the panic it raised as an error.
func recovered(mem *Mem, g *graph.Graph, bm BatchMachine) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("recovered: %v", r)
		}
	}()
	_, err = RunBatch(g, bm, Config{Mem: mem})
	return err
}

// TestBatchMemReuseAcrossSizes: after a run on a larger graph, a pooled
// Mem serves a run in which no node ever wakes, and then a run that
// matches one on fresh buffers.
func TestBatchMemReuseAcrossSizes(t *testing.T) {
	mem := NewMem()
	big := graph.GNP(300, 0.05, 1)
	if _, err := RunBatch(big, &pingBatch{g: big, rounds: 3}, Config{Mem: mem}); err != nil {
		t.Fatal(err)
	}
	small := graph.Cycle(10)
	never := &scriptBatch{wake: func(int) int { return Never }, compose: pingAll}
	if res, err := RunBatch(small, never, Config{Mem: mem}); err != nil || res.Rounds != 0 {
		t.Fatalf("no-wake run on a used Mem: %+v, %v", res, err)
	}
	pings := func(int) digestMachine { return &wakeMachine{left: 4} }
	freshDig, fresh := runDigests(t, small, pings, Run, Config{Seed: 5})
	dig, pooled := runDigests(t, small, pings, Run, Config{Seed: 5, Mem: mem})
	if err := sameResult(pooled, fresh); err != nil {
		t.Fatal(err)
	}
	for v := range dig {
		if dig[v] != freshDig[v] {
			t.Fatalf("node %d digest %x on a used Mem, %x fresh", v, dig[v], freshDig[v])
		}
	}
}

// farFirst wakes even nodes in round 0 and odd nodes far past the wake
// calendar's ring, in round 5*calSize+v.
func farFirst(v int) int {
	if v%2 == 0 {
		return 0
	}
	return 5*calSize + v
}

// pingAll broadcasts once from every awake node: the low bit of its ID, a
// one-bit round that the router pulls.
func pingAll(_ int, awake []int32, out *BatchOutbox) {
	for _, v := range awake {
		out.Broadcast(v, Msg{Kind: 1, A: uint64(v) & 1, Bits: 1})
	}
}
