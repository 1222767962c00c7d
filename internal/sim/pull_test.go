package sim

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/rng"
)

// partialRule is the partial-read protocol's per-node behavior, shared by
// its per-node form (partialMachine, run on runPerNode) and its native
// batch form (partialBatch, run on RunBatch), so both draw the same random
// numbers in the same order. In each awake round a node broadcasts with
// probability pb — twice with probability pdup in rounds 3 mod 4 —, in
// rounds 1 mod 4 unicasts to each neighbor with probability pu, then
// skips its inbox with probability pskip, reads it twice with probability
// preread and once otherwise, each read a count (Inboxes.Count) with
// probability pcount, and sleeps 1 to 3 rounds.
type partialRule struct {
	pb, pdup, pu, pskip, preread, pcount float64
	rounds                               int // awake rounds per node
}

// How a partialRule node reads its inbox: not at all, through
// Inboxes.At, or through Inboxes.Count.
const (
	readNone = iota
	readAt
	readCount
)

func (p partialRule) sends(r *rng.Stream, round int) int {
	switch {
	case !r.Bernoulli(p.pb):
		return 0
	case round%4 == 3 && r.Bernoulli(p.pdup):
		return 2
	}
	return 1
}

// unicasts draws whether a node unicasts to the next neighbor of its row
// in round: with probability pu in rounds 1 mod 4, never in the others.
func (p partialRule) unicasts(r *rng.Stream, round int) bool {
	return round%4 == 1 && r.Bernoulli(p.pu)
}

// reads draws a node's reads of its inbox in one round, in order.
func (p partialRule) reads(r *rng.Stream) (first, second int) {
	if r.Bernoulli(p.pskip) {
		return readNone, readNone
	}
	first = p.how(r)
	if r.Bernoulli(p.preread) {
		second = p.how(r)
	}
	return first, second
}

func (p partialRule) how(r *rng.Stream) int {
	if r.Bernoulli(p.pcount) {
		return readCount
	}
	return readAt
}

// partialMsg is node v's i-th broadcast in round. The first is bit
// round mod 10 of v's ID, a one-bit payload that a dense round pulls; the
// second, sent only in rounds 3 mod 4, is wide: B carries the round and v,
// and A the round from odd senders and 0 from even ones.
func partialMsg(v int32, round, i int) Msg {
	if i == 0 {
		return Msg{Kind: 1, A: uint64(v) >> (round % 10) & 1, Bits: 1}
	}
	return Msg{Kind: 2, A: uint64(round) * uint64(v&1), B: uint64(round)<<32 | uint64(v), Bits: 8}
}

// partialUni is node v's unicast to its neighbor u in round, which is 1
// mod 4: A is the round when v and u differ in parity and 0 otherwise, so
// a receiver's unicasts mix zero and nonzero A.
func partialUni(v, u int32, round int) Msg {
	return Msg{Kind: 3, A: uint64(round) * uint64((v^u)&1), B: uint64(u), Bits: 8}
}

// foldCount folds a counted inbox, its length and its messages with a
// nonzero A, into a rolling digest.
func foldCount(d uint64, n, nonzero int) uint64 {
	return d*0x9e3779b97f4a7c15 + uint64(n)<<32 + uint64(nonzero) + 1
}

// partialMachine is partialRule as a per-node Machine. Its digest folds
// every inbox read, as often as it is read: an At read folds the inbox,
// a Count read what Inboxes.Count returns, computed from the inbox.
type partialMachine struct {
	partialRule
	env    *Env
	left   int
	digest uint64
}

func (m *partialMachine) Init(env *Env) int {
	m.env, m.left = env, m.rounds
	return env.Node % 3
}

func (m *partialMachine) Compose(round int, out *Outbox) {
	v := int32(m.env.Node)
	for i, k := 0, m.sends(m.env.Rand, round); i < k; i++ {
		out.Broadcast(partialMsg(v, round, i))
	}
	for _, u := range m.env.Neighbors {
		if m.unicasts(m.env.Rand, round) {
			out.Send(u, partialUni(v, u, round))
		}
	}
}

func (m *partialMachine) Deliver(round int, inbox []Msg) int {
	first, second := m.reads(m.env.Rand)
	for _, how := range [2]int{first, second} {
		switch how {
		case readAt:
			m.digest = foldInbox(m.digest, inbox)
		case readCount:
			nonzero := 0
			for _, msg := range inbox {
				if msg.A != 0 {
					nonzero++
				}
			}
			m.digest = foldCount(m.digest, len(inbox), nonzero)
		}
	}
	if m.left--; m.left <= 0 {
		return Never
	}
	return round + 1 + m.env.Rand.Intn(3)
}

func (m *partialMachine) Digest() uint64 { return m.digest }

// partialBatch is partialRule as a native BatchMachine: DeliverAll reads
// only the inboxes the rule picks, and takes every second read after all
// first reads, so it re-gathers an inbox whose scratch other reads have
// reused since. After each Count it checks that the inbox At returned last
// is unchanged. It counts the rounds delivered pulled and pushed.
type partialBatch struct {
	partialRule
	g              *graph.Graph
	rands          []rng.Stream
	left           []int
	digest         []uint64
	again          [][2]int // awake index and read kind of this round's second reads
	last           []Msg    // the inbox At returned last this round
	lastDigest     uint64   // foldInbox of last when At returned it
	clobbered      bool     // a Count changed last
	pulled, pushed int
}

func (b *partialBatch) InitAll(env *BatchEnv) []int {
	b.g = env.G
	b.rands = make([]rng.Stream, env.N)
	b.left = make([]int, env.N)
	b.digest = make([]uint64, env.N)
	first := make([]int, env.N)
	for v := range first {
		b.rands[v] = rng.ForNode(env.Seed, v)
		b.left[v] = b.rounds
		first[v] = v % 3
	}
	return first
}

func (b *partialBatch) ComposeAll(round int, awake []int32, out *BatchOutbox) {
	for _, v := range awake {
		r := &b.rands[v]
		for i, k := 0, b.sends(r, round); i < k; i++ {
			out.Broadcast(v, partialMsg(v, round, i))
		}
		for _, u := range b.g.Neighbors(int(v)) {
			if b.unicasts(r, round) {
				out.Send(v, u, partialUni(v, u, round))
			}
		}
	}
}

func (b *partialBatch) DeliverAll(round int, awake []int32, in Inboxes, next []int) {
	if in.p != nil {
		b.pulled++
	} else {
		b.pushed++
	}
	b.last = nil
	again := b.again[:0]
	for i, v := range awake {
		r := &b.rands[v]
		first, second := b.reads(r)
		b.read(in, i, v, first)
		if second != readNone {
			again = append(again, [2]int{i, second})
		}
		next[i] = Never
		if b.left[v]--; b.left[v] > 0 {
			next[i] = round + 1 + r.Intn(3)
		}
	}
	for _, a := range again {
		b.read(in, a[0], awake[a[0]], a[1])
	}
	b.again = again
}

// read folds one read of awake node v = awake[i]'s inbox into its digest.
func (b *partialBatch) read(in Inboxes, i int, v int32, how int) {
	switch how {
	case readAt:
		b.last = in.At(i)
		b.lastDigest = foldInbox(0, b.last)
		b.digest[v] = foldInbox(b.digest[v], b.last)
	case readCount:
		n, nonzero := in.Count(i)
		b.digest[v] = foldCount(b.digest[v], n, nonzero)
		if b.last != nil && foldInbox(0, b.last) != b.lastDigest {
			b.clobbered = true
		}
	}
}

// checkPartial runs rule natively on RunBatch and per node on runPerNode,
// and requires the same digest of the inboxes each node read and the
// same Result, MsgsDropped included. It returns the batch protocol.
func checkPartial(t *testing.T, g *graph.Graph, rule partialRule, cfg Config) *partialBatch {
	t.Helper()
	mk := func(int) digestMachine { return &partialMachine{partialRule: rule} }
	refDig, ref := runDigests(t, g, mk, runPerNode, cfg)
	b := &partialBatch{partialRule: rule}
	res, err := RunBatch(g, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v := range refDig {
		if b.digest[v] != refDig[v] {
			t.Fatalf("node %d read-inbox digest %x, runPerNode %x", v, b.digest[v], refDig[v])
		}
	}
	if err := sameResult(res, ref); err != nil {
		t.Fatal(err)
	}
	if b.clobbered {
		t.Fatal("Count changed the inbox At returned before it")
	}
	return b
}

// TestPartialReadsMatchPerNode holds a native batch protocol that reads a
// random subset of inboxes — re-reading some, skipping others, counting
// some with Inboxes.Count — to runPerNode, on graphs with hubs, long ID
// spans and isolated nodes. The dense rules are pulled in most rounds;
// with pdup, rounds 3 mod 4 have a sender that broadcasts twice, and with
// pu, rounds 1 mod 4 have unicasts, some with a zero A and some not; the
// router pushes both, and a pushed round's Count, whose nonzero counter
// covers broadcasts and unicasts, is held to a count of the inbox.
func TestPartialReadsMatchPerNode(t *testing.T) {
	rules := []struct {
		name         string
		rule         partialRule
		pulls, pushs bool // the run must have rounds of each kind
	}{
		{"dense/read-all", partialRule{pb: 1, rounds: 6}, true, false},
		{"dense/partial", partialRule{pb: 0.9, pskip: 0.3, preread: 0.3, pcount: 0.4, rounds: 8}, true, false},
		{"dense/skip-all", partialRule{pb: 1, pskip: 1, rounds: 6}, true, false},
		{"dense/count-all", partialRule{pb: 1, preread: 0.3, pcount: 1, rounds: 6}, true, false},
		{"dense/doubles", partialRule{pb: 0.9, pdup: 0.5, pskip: 0.3, preread: 0.3, pcount: 0.4, rounds: 12}, true, true},
		{"sparse", partialRule{pb: 0.3, pdup: 0.3, pskip: 0.3, preread: 0.3, pcount: 0.4, rounds: 8}, false, true},
		{"dense/unicasts", partialRule{pb: 0.9, pu: 0.4, pskip: 0.2, preread: 0.4, pcount: 0.5, rounds: 12}, true, true},
		{"sparse/unicasts", partialRule{pb: 0.3, pdup: 0.3, pu: 0.3, pskip: 0.2, preread: 0.4, pcount: 0.5, rounds: 8}, false, true},
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", graph.GNP(300, 0.03, 1)},
		{"gnp-dense", graph.GNP(150, 0.1, 2)},
		{"gnp-wide", graph.GNP(1000, 0.004, 3)},
		{"star", graph.Star(70)},
		{"cycle", graph.Cycle(130)},
		{"isolated", graph.FromEdges(6, [][2]int{{0, 1}})},
	}
	for _, rc := range rules {
		for _, gc := range graphs {
			t.Run(rc.name+"/"+gc.name, func(t *testing.T) {
				b := checkPartial(t, gc.g, rc.rule, Config{Seed: 11})
				if rc.pulls && b.pulled == 0 || rc.pushs && b.pushed == 0 {
					t.Fatalf("%d pulled and %d pushed rounds", b.pulled, b.pushed)
				}
			})
		}
	}
}

// FuzzPartialReadsMatchPerNode is TestPartialReadsMatchPerNode over random
// graphs, seeds and rates. The last seed unicasts.
func FuzzPartialReadsMatchPerNode(f *testing.F) {
	f.Add(uint8(60), uint8(30), uint64(1), uint8(230), uint8(0), uint8(0), uint8(80), uint8(80), uint8(0))
	f.Add(uint8(90), uint8(10), uint64(2), uint8(255), uint8(128), uint8(0), uint8(128), uint8(128), uint8(128))
	f.Add(uint8(40), uint8(60), uint64(3), uint8(255), uint8(0), uint8(0), uint8(255), uint8(0), uint8(60))
	f.Add(uint8(95), uint8(4), uint64(4), uint8(100), uint8(60), uint8(0), uint8(40), uint8(200), uint8(100))
	f.Add(uint8(1), uint8(0), uint64(5), uint8(255), uint8(0), uint8(0), uint8(0), uint8(0), uint8(255))
	f.Add(uint8(70), uint8(20), uint64(6), uint8(255), uint8(0), uint8(0), uint8(0), uint8(120), uint8(255))
	f.Add(uint8(80), uint8(25), uint64(7), uint8(230), uint8(60), uint8(100), uint8(50), uint8(100), uint8(128))
	f.Fuzz(func(t *testing.T, n, p uint8, seed uint64, pb, pdup, pu, pskip, preread, pcount uint8) {
		g := graph.GNP(int(n%96)+1, float64(p)/255, seed)
		rule := partialRule{
			pb:      float64(pb) / 255,
			pdup:    float64(pdup) / 255,
			pu:      float64(pu) / 255,
			pskip:   float64(pskip) / 255,
			preread: float64(preread) / 255,
			pcount:  float64(pcount) / 255,
			rounds:  6,
		}
		checkPartial(t, g, rule, Config{Seed: seed, B: 16})
	})
}

// recordBatch wakes the nodes in awake in rounds 0 to rounds−1,
// broadcasts msg(round, v) from each node v in send in each of them, and
// records every inbox and whether each round was pulled.
type recordBatch struct {
	awake, send []bool
	rounds      int
	msg         func(round int, v int32) Msg
	got         [][][]Msg // got[v][round]: v's inbox in round
	pulled      []bool    // pulled[round]
}

func (b *recordBatch) InitAll(env *BatchEnv) []int {
	b.got = make([][][]Msg, env.N)
	b.pulled = nil
	first := make([]int, env.N)
	for v := range first {
		first[v] = Never
		if b.awake[v] {
			first[v] = 0
		}
	}
	return first
}

func (b *recordBatch) ComposeAll(round int, awake []int32, out *BatchOutbox) {
	for _, v := range awake {
		if b.send[v] {
			out.Broadcast(v, b.msg(round, v))
		}
	}
}

func (b *recordBatch) DeliverAll(round int, awake []int32, in Inboxes, next []int) {
	b.pulled = append(b.pulled, in.p != nil)
	for i, v := range awake {
		b.got[v] = append(b.got[v], slices.Clone(in.At(i)))
		next[i] = Never
		if round+1 < b.rounds {
			next[i] = round + 1
		}
	}
}

// idBit is the one-bit broadcast of TestPullBitmapEdges: in round r, bit r
// of the sender's ID, with r in B.
func idBit(round int, v int32) Msg {
	return Msg{Kind: 1, A: uint64(v) >> round & 1, B: uint64(round), Bits: 1}
}

// TestPullBitmapEdges routes ⌈log₂ n⌉ rounds on a clique of chosen nodes
// — senders, silent awake receivers and sleepers, every other node
// isolated — and checks every inbox and counter against the clique
// directly. The senders sit at both ends of the ID range (nodes 0 and
// n−1) and next to sleepers (63, 64, 127), or lie in a range that does
// not start at node 0 and leaves some of the receivers' neighbors below
// and above it. In round r each sender broadcasts bit r of its ID, so
// every round is pulled and each receiver reassembles its senders' IDs
// from the A bits of their sender bytes. Six more cases are dense but
// must push in every round: one sender's A is 2, or its Kind, B or Bits
// differs from the others'. The odd sender is node 64, in the middle of
// the round, and for B also the round's first sender (node 0) and its
// last (node 199), so the outbox's header runs split in the middle, after
// the first broadcast and before the last. The cases share one Mem, whose
// sender bytes the later 200-node cases reuse: node 100, a sender in the
// second case, is a receiver in the last, so a sender byte that a run
// left set shows there as a phantom message.
func TestPullBitmapEdges(t *testing.T) {
	// odd is idBit except that sender at broadcasts change(m).
	odd := func(at int32, change func(m Msg) Msg) func(int, int32) Msg {
		return func(round int, v int32) Msg {
			if v == at {
				return change(idBit(round, v))
			}
			return idBit(round, v)
		}
	}
	nextB := func(m Msg) Msg { m.B++; return m }
	wordEdges := []int{0, 63, 64, 127, 199}
	cases := []struct {
		name              string
		n                 int
		send, recv, sleep []int
		msg               func(round int, v int32) Msg // idBit when nil
	}{
		{"word-edges", 200, wordEdges, []int{100, 150}, []int{1, 62, 65, 126, 128, 198}, nil},
		{"inner-span", 300, []int{70, 100, 130, 191, 192, 255}, []int{66, 260}, []int{0, 64, 69, 71, 299}, nil},
		{"one-word", 300, []int{129, 130}, []int{128}, []int{0, 127, 131, 299}, nil},
		{"push/A=2", 200, wordEdges, []int{100, 150}, []int{1, 62, 65, 126, 128, 198}, odd(64, func(m Msg) Msg { m.A = 2; return m })},
		{"push/Kind", 200, wordEdges, []int{100, 150}, []int{1, 62, 65, 126, 128, 198}, odd(64, func(m Msg) Msg { m.Kind = 2; return m })},
		{"push/B", 200, wordEdges, []int{100, 150}, []int{1, 62, 65, 126, 128, 198}, odd(64, nextB)},
		{"push/B-first", 200, wordEdges, []int{100, 150}, []int{1, 62, 65, 126, 128, 198}, odd(0, nextB)},
		{"push/B-last", 200, wordEdges, []int{100, 150}, []int{1, 62, 65, 126, 128, 198}, odd(199, nextB)},
		{"push/Bits", 200, wordEdges, []int{100, 150}, []int{1, 62, 65, 126, 128, 198}, odd(64, func(m Msg) Msg { m.Bits = 2; return m })},
		{"word-edges-again", 200, wordEdges, []int{100, 150}, []int{1, 62, 65, 126, 128, 198}, nil},
	}
	mem := NewMem()
	for _, c := range cases {
		clique := slices.Concat(c.send, c.recv, c.sleep)
		var edges [][2]int
		for i, u := range clique {
			for _, v := range clique[i+1:] {
				edges = append(edges, [2]int{u, v})
			}
		}
		g := graph.FromEdges(c.n, edges)
		rounds := bits.Len(uint(c.n - 1))
		b := &recordBatch{awake: make([]bool, c.n), send: make([]bool, c.n), rounds: rounds, msg: c.msg}
		if b.msg == nil {
			b.msg = idBit
		}
		for _, v := range c.send {
			b.awake[v], b.send[v] = true, true
		}
		for _, v := range c.recv {
			b.awake[v] = true
		}
		res, err := RunBatch(g, b, Config{Mem: mem})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		wantPull := c.msg == nil
		for r, pulled := range b.pulled {
			if pulled != wantPull {
				t.Fatalf("%s: round %d pulled = %v, want %v", c.name, r, pulled, wantPull)
			}
		}
		senders := slices.Clone(c.send)
		slices.Sort(senders)
		var delivered int64
		for _, v := range slices.Concat(c.send, c.recv) {
			var want []int32
			for _, s := range senders {
				if s != v {
					want = append(want, int32(s))
				}
			}
			ids := make([]int32, len(want))
			for r, inbox := range b.got[v] {
				if len(inbox) != len(want) {
					t.Fatalf("%s: node %d received %d messages in round %d, want %d", c.name, v, len(inbox), r, len(want))
				}
				for k, m := range inbox {
					sent := b.msg(r, want[k])
					sent.From = want[k]
					if m != sent {
						t.Fatalf("%s: node %d received %+v in round %d, want %+v", c.name, v, m, r, sent)
					}
					ids[k] |= int32(m.A&1) << r
				}
			}
			if wantPull && !slices.Equal(ids, want) {
				t.Fatalf("%s: node %d reassembled sender IDs %v, want %v", c.name, v, ids, want)
			}
			delivered += int64(rounds * len(want))
		}
		sent := int64(rounds * len(c.send) * (len(clique) - 1))
		if res.MsgsSent != sent || res.MsgsDropped != sent-delivered {
			t.Fatalf("%s: sent %d, dropped %d; want %d, %d", c.name, res.MsgsSent, res.MsgsDropped, sent, sent-delivered)
		}
	}
}

// TestPulledRunsLeaveNoInboxBuffer: a run whose rounds are all pulled
// (pingBatch on GNP: every awake node broadcasts once) never allocates
// push's O(m) inbox buffer or its offsets.
func TestPulledRunsLeaveNoInboxBuffer(t *testing.T) {
	g := graph.GNP(400, 10.0/400, 3)
	mem := NewMem()
	res, err := RunBatch(g, &pingBatch{g: g, rounds: 5}, Config{Mem: mem})
	if err != nil {
		t.Fatal(err)
	}
	if res.MsgsSent == 0 {
		t.Fatal("no messages sent")
	}
	if mem.push.buf != nil || mem.push.off != nil {
		t.Fatalf("pulled run allocated push's buffers: %d inbox slots, %d offsets", cap(mem.push.buf), cap(mem.push.off))
	}
}

// countedBatch runs rounds pushed rounds on every node of its graph and
// reads every inbox through Inboxes.Count or, with byAt, through a loop
// over Inboxes.At that counts the same two numbers; it folds each count
// into its node's digest. In round r, nodes r mod 3 broadcast (one third
// of the nodes, a sparse round), the even ones among them twice, and
// nodes r mod 5 unicast to their neighbors of r's parity. A of each
// message is zero for some senders and nonzero for others. It counts the
// rounds delivered pulled. With byAt it also counts every inbox with
// Count before the round's first At, and again after its At loop, and
// records in recount the first inbox where the three readings differ.
type countedBatch struct {
	g       *graph.Graph
	rounds  int
	byAt    bool
	digest  []uint64
	pulled  int
	before  [][2]int // with byAt: this round's counts before its first At
	recount error
}

func (b *countedBatch) InitAll(env *BatchEnv) []int {
	b.digest = make([]uint64, env.N)
	return make([]int, env.N)
}

func (b *countedBatch) ComposeAll(round int, awake []int32, out *BatchOutbox) {
	r := int32(round)
	for _, v := range awake {
		if v%3 == r%3 {
			out.Broadcast(v, Msg{Kind: 1, A: uint64((v + r) & 1), Bits: 1})
			if v%2 == 0 {
				out.Broadcast(v, Msg{Kind: 2, A: uint64(v>>1&1) * uint64(round+1), Bits: 8})
			}
		}
		if v%5 == r%5 {
			for _, u := range b.g.Neighbors(int(v)) {
				if u%2 == r%2 {
					out.Send(v, u, Msg{Kind: 3, A: uint64((u ^ v) & 1), Bits: 8})
				}
			}
		}
	}
}

func (b *countedBatch) DeliverAll(round int, awake []int32, in Inboxes, next []int) {
	if in.p != nil {
		b.pulled++
	}
	if b.byAt {
		b.before = b.before[:0]
		for i := range awake {
			n, nonzero := in.Count(i)
			b.before = append(b.before, [2]int{n, nonzero})
		}
	}
	for i, v := range awake {
		n, nonzero := 0, 0
		if b.byAt {
			for _, m := range in.At(i) {
				n++
				if m.A != 0 {
					nonzero++
				}
			}
			an, anz := in.Count(i)
			if got := [2]int{n, nonzero}; b.recount == nil && (b.before[i] != got || [2]int{an, anz} != got) {
				b.recount = fmt.Errorf("round %d, node %d: Count %v before the first At, [%d %d] after; At counts %v",
					round, v, b.before[i], an, anz, got)
			}
		} else {
			n, nonzero = in.Count(i)
		}
		b.digest[v] = foldCount(b.digest[v], n, nonzero)
		next[i] = Never
		if round+1 < b.rounds {
			next[i] = round + 1
		}
	}
}

// TestCountedPushedRunsWriteNoCopies: a run whose pushed rounds are only
// counted — sparse broadcasts, senders with two broadcasts and unicasts,
// countedBatch — never lays out an inbox or writes a copy, so a fresh
// Mem's inbox offsets and buffer stay unallocated, and its counts equal
// those of a second run that counts each inbox in a loop over At, which
// does write them. In that second run every pushed Count returns the same
// two numbers before the round's first At and after it.
func TestCountedPushedRunsWriteNoCopies(t *testing.T) {
	for _, g := range []*graph.Graph{graph.GNP(400, 10.0/400, 3), graph.Star(70), graph.FromEdges(6, [][2]int{{0, 1}})} {
		counted := &countedBatch{g: g, rounds: 7}
		mem := NewMem()
		res, err := RunBatch(g, counted, Config{Mem: mem})
		if err != nil {
			t.Fatal(err)
		}
		if counted.pulled != 0 {
			t.Fatalf("n=%d: %d rounds pulled", g.N(), counted.pulled)
		}
		if mem.push.buf != nil || mem.push.off != nil {
			t.Fatalf("n=%d: counted run allocated an inbox buffer of %d slots and %d offsets",
				g.N(), cap(mem.push.buf), cap(mem.push.off))
		}
		byAt := &countedBatch{g: g, rounds: 7, byAt: true}
		mem = NewMem()
		ref, err := RunBatch(g, byAt, Config{Mem: mem})
		if err != nil {
			t.Fatal(err)
		}
		if res.MsgsSent > res.MsgsDropped && mem.push.buf == nil {
			t.Fatalf("n=%d: a run read with At delivered %d copies but wrote none", g.N(), res.MsgsSent-res.MsgsDropped)
		}
		if byAt.recount != nil {
			t.Fatalf("n=%d: %v", g.N(), byAt.recount)
		}
		if err := sameResult(res, ref); err != nil {
			t.Fatalf("n=%d: %v", g.N(), err)
		}
		if !slices.Equal(counted.digest, byAt.digest) {
			t.Fatalf("n=%d: Count digests %x, At loop %x", g.N(), counted.digest, byAt.digest)
		}
	}
}

// panicBatch is pingBatch whose DeliverAll, in round at, reads a few
// inboxes — one of them twice — through At, or through Count with count
// set, and then panics. With wide set, every broadcast carries the round
// in 8 bits, so every round is pushed.
type panicBatch struct {
	pingBatch
	at          int
	wide, count bool
}

func (p *panicBatch) ComposeAll(round int, awake []int32, out *BatchOutbox) {
	if !p.wide {
		p.pingBatch.ComposeAll(round, awake, out)
		return
	}
	for _, v := range awake {
		out.Broadcast(v, Msg{Kind: 1, A: uint64(round), Bits: 8})
	}
}

func (p *panicBatch) DeliverAll(round int, awake []int32, in Inboxes, next []int) {
	if round == p.at {
		for _, i := range []int{0, len(awake) - 1, 0} {
			if p.count {
				in.Count(i)
			} else {
				in.At(i)
			}
		}
		panic(fmt.Sprintf("sim test: DeliverAll panics in round %d", round))
	}
	p.pingBatch.DeliverAll(round, awake, in, next)
}
