// This file is the engine: RunBatch, its wake calendar, its router and
// their pooled buffers. Run (sim.go) executes per-node machines on it
// through an adapter; see the package documentation in doc.go.

package sim

import (
	"fmt"
	"math"
	"math/bits"
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
// messages only from nodes in `awake`, grouped by sender, in the order
// senders appear in `awake` (the natural shape of a `for _, v := range
// awake` loop); RunBatch fails the run otherwise. DeliverAll reads
// awake node awake[i]'s inbox via in.At(i), or only counts it via
// in.Count(i) — once, several times or not at all; in a pulled round At's
// slice is valid until the next At call — and writes the node's next wake
// round (must be > round, or Never) into next[i]. A round's messages are
// copied into inboxes only if DeliverAll calls At, so a protocol that
// needs only how many messages arrived, and how many with a nonzero A,
// should Count. Neither ComposeAll nor DeliverAll may modify `awake`:
// the engine reschedules from it.
type BatchMachine interface {
	InitAll(env *BatchEnv) []int
	ComposeAll(round int, awake []int32, out *BatchOutbox)
	DeliverAll(round int, awake []int32, in Inboxes, next []int)
}

// BatchOutbox collects the messages of one ComposeAll call: broadcasts and
// unicasts, each grouped by sender in awake order (the engine's router
// relies on that grouping to deliver in sender order without sorting, and
// fails the run when it is broken). A broadcast is kept as its sender and
// its A, in two parallel arrays; its Kind, B and Bits are kept once per run
// of consecutive broadcasts that share them, so a round whose broadcasts
// share one header, as every round of the one-bit protocols does, keeps 12
// bytes per broadcast. A unicast is kept whole, with its destination.
// Buffers are pooled and reused across rounds.
type BatchOutbox struct {
	from []int32    // broadcast senders
	a    []uint64   // broadcast A, parallel to from
	runs []bcastRun // the broadcasts' header runs, in order
	uni  []Msg      // unicasts; Msg.From is the sender
	uto  []int32    // unicast destinations, parallel to uni
}

// bcastRun is a run of consecutive broadcasts that share Kind, B and Bits,
// which it holds, and start is the index of the run's first broadcast. A
// run ends where the next one starts, the last at the last broadcast.
type bcastRun struct {
	header
	start int
}

// header is the part of a broadcast that a run shares.
type header struct {
	kind uint8
	bits int32
	b    uint64
}

// Broadcast queues m on every incident edge of node from.
func (o *BatchOutbox) Broadcast(from int32, m Msg) {
	o.from = append(o.from, from)
	o.a = append(o.a, m.A)
	h := header{m.Kind, m.Bits, m.B}
	if k := len(o.runs) - 1; k < 0 || o.runs[k].header != h {
		o.runs = append(o.runs, bcastRun{h, len(o.from) - 1})
	}
}

// Send queues a unicast from node from to its neighbor to. RunBatch fails
// the run with an error when to is not a neighbor of from.
func (o *BatchOutbox) Send(from, to int32, m Msg) {
	m.From = from
	o.uni = append(o.uni, m)
	o.uto = append(o.uto, to)
}

func (o *BatchOutbox) reset() {
	o.from, o.a, o.runs = o.from[:0], o.a[:0], o.runs[:0]
	o.uni, o.uto = o.uni[:0], o.uto[:0]
}

// runOf returns the index of the header run that holds broadcast i. r is
// the run of an earlier broadcast, or 0: callers walk the broadcasts in
// order and pass back the run each call returns, so finding the runs
// costs one step per run.
func (o *BatchOutbox) runOf(i, r int) int {
	for r+1 < len(o.runs) && o.runs[r+1].start <= i {
		r++
	}
	return r
}

// group returns the next sender in routing order after broadcasts [:bi]
// and unicasts [:ui] — the smaller head sender; its broadcasts drain
// before its unicasts — and the ends of that sender's broadcast and
// unicast runs.
func (o *BatchOutbox) group(bi, ui int) (s int32, be, ue int) {
	if bi < len(o.from) && (ui >= len(o.uni) || o.from[bi] <= o.uni[ui].From) {
		s = o.from[bi]
	} else {
		s = o.uni[ui].From
	}
	for be = bi; be < len(o.from) && o.from[be] == s; be++ {
	}
	for ue = ui; ue < len(o.uni) && o.uni[ue].From == s; ue++ {
	}
	return s, be, ue
}

// Inboxes serves every awake node's inbox: node awake[i]'s messages are
// At(i), in routing order (ascending sender; per sender, broadcasts before
// unicasts, each in call order), and Count(i) counts them without building
// the inbox. In a pushed round the router has only counted the inboxes,
// and the round's first At lays out every inbox's segment in one pooled
// buffer and writes every copy into it, so a round that DeliverAll only
// counts lays out and writes nothing; in a pulled round At builds each
// inbox on demand from the round's sender bytes (see RunBatch's route).
// Any inbox may be read once, several times or not at all, by either
// method.
type Inboxes struct {
	q *pushState // non-nil in a pushed round
	p *pullState // non-nil in a pulled round
}

// At returns the inbox of the i-th node of the awake slice this view was
// delivered with. The returned slice must not be modified or retained
// across rounds: in a pushed round it aliases the round's shared buffer,
// and in a pulled round it is a scratch slice valid until the next At
// call (Count leaves it alone). In a pushed round the first At writes
// every inbox of the round into that buffer.
func (in Inboxes) At(i int) []Msg {
	if in.p != nil {
		return in.p.gather(i)
	}
	q := in.q
	if !q.written {
		q.write()
	}
	return q.buf[q.off[i]:q.off[i+1]]
}

// Count returns the number of messages in the i-th node's inbox and how
// many of them have a nonzero A: what a loop over At(i) would count,
// without building the inbox. In a pushed round it reads the two numbers
// the router counted, in O(1), and writes no copy; in a pulled round it
// only reads the sender bytes of the node's neighbors.
func (in Inboxes) Count(i int) (n, nonzero int) {
	if in.p != nil {
		return in.p.count(i)
	}
	c := in.q.cnt[i+1]
	return int(uint32(c)), int(c >> 32)
}

// pushState is a pushed round's routing state. Indexed by pos (0 is the
// sink of copies to sleeping receivers), cnt holds in its high half how
// many of a receiver's copies have a nonzero A and in its low half its
// count of copies; push writes it and nothing changes it until the next
// pushed round. off and buf serve At: the round's first At (write) lays
// the inboxes out in off and writes the copies into buf. A run that no
// DeliverAll reads with At never sizes either. Between pushed rounds
// written is false.
type pushState struct {
	e       *batchEngine // the running engine: write reads its graph, outbox and positions
	cnt     []uint64
	off     []int32 // once written, inbox i is buf[off[i]:off[i+1]]; len = awake set + 1
	buf     []Msg
	written bool // off and buf hold this round's inboxes
}

// write is push's second pass, made by the round's first At. It turns the
// counts into offsets, off[r] = the start of receiver r's segment for pos
// r >= 1, and then walks the outbox in routing order again and writes
// each copy at its receiver's cursor off[r], advancing it, so each
// receiver's segment is in routing order and ends with off[r] at the
// segment's end: inbox i, at pos i+1, is buf[off[i]:off[i+1]]. off[0],
// the sink's, is never written and stays 0: copies to sleeping receivers
// are skipped, and push counted them as drops.
func (q *pushState) write() {
	g, pos, ob := q.e.g, q.e.mem.pos, &q.e.mem.out
	cnt := q.cnt
	if cap(q.off) < len(cnt) {
		q.off = make([]int32, len(cnt))
	}
	off := q.off[:len(cnt)]
	size := int32(0)
	for r, c := range cnt[1:] {
		off[r+1] = size
		size += int32(uint32(c))
	}
	if cap(q.buf) < int(size) {
		q.buf = make([]Msg, size)
	}
	buf := q.buf[:size]
	run := 0
	for bi, ui := 0, 0; bi < len(ob.from) || ui < len(ob.uni); {
		s, be, ue := ob.group(bi, ui)
		// One pass over the row per broadcast: each receiver still gets
		// the sender's broadcasts in call order, and the common single
		// broadcast costs one store per receiver.
		for i := bi; i < be; i++ {
			run = ob.runOf(i, run)
			h := ob.runs[run].header
			mm := Msg{From: s, Kind: h.kind, A: ob.a[i], B: h.b, Bits: h.bits}
			for _, u := range g.Neighbors(int(s)) {
				if r := pos[u]; r != 0 {
					buf[off[r]] = mm
					off[r]++
				}
			}
		}
		for i := ui; i < ue; i++ {
			if r := pos[ob.uto[i]]; r != 0 {
				buf[off[r]] = ob.uni[i]
				off[r]++
			}
		}
		bi, ui = be, ue
	}
	q.off, q.buf = off, buf
	q.written = true
}

// pullState is a pulled round's routing state. The round's senders each
// broadcast exactly once, in ascending order, and their broadcasts differ
// only in From and in A, which is 0 or 1: hdr holds the rest, and from
// holds one byte per node ID, whose bit 0 marks a sender and whose bit 1
// is its A. Between pulled rounds every byte is zero and every read flag
// false.
type pullState struct {
	g     *graph.Graph
	awake []int32
	hdr   Msg    // the first broadcast: every one has its Kind, B and Bits
	from  []byte // from[u] = A<<1 | 1 for a sender u, 0 for any other node
	read  []bool // read[i]: awake[i]'s deliveries are counted
	sent  int64  // copies sent
	got   int64  // copies delivered to the inboxes counted so far
	inbox []Msg  // gather's scratch
}

// gather builds awake[i]'s inbox in a pulled round from its sorted
// neighbor row — ascending sender, the routing order — into the scratch
// inbox, and counts its deliveries on the first read. Each message is the
// round's header with the neighbor's ID and A. The walk loads one byte per
// neighbor and has no data-dependent branch: it stores a message for
// every neighbor and advances past it only by the sender bit.
func (p *pullState) gather(i int) []Msg {
	row := p.g.Neighbors(int(p.awake[i]))
	if cap(p.inbox) < len(row) {
		p.inbox = make([]Msg, len(row))
	}
	box := p.inbox[:len(row)]
	from := p.from
	m := p.hdr
	k := 0
	for _, u := range row {
		f := from[u]
		m.From, m.A = u, uint64(f>>1)
		box[k] = m
		k += int(f & 1)
	}
	if !p.read[i] {
		p.read[i] = true
		p.got += int64(k)
	}
	return box[:k]
}

// count is Count in a pulled round: a walk over awake[i]'s row that loads
// one byte per neighbor and writes no inbox. Like gather, it counts the
// deliveries on the first read.
func (p *pullState) count(i int) (n, nonzero int) {
	from := p.from
	for _, u := range p.g.Neighbors(int(p.awake[i])) {
		f := from[u]
		n += int(f & 1)
		nonzero += int(f >> 1)
	}
	if !p.read[i] {
		p.read[i] = true
		p.got += int64(n)
	}
	return n, nonzero
}

// settle counts the deliveries to the inboxes DeliverAll never read and
// returns the copies dropped: those sent minus those delivered.
func (p *pullState) settle() int64 {
	for i, read := range p.read[:len(p.awake)] {
		if !read {
			p.count(i)
		}
	}
	return p.sent - p.got
}

// reset zeroes the round's sender bytes and read flags, ending the pulled
// round. Pull sets bytes only for awake senders, so zeroing the awake
// set's bytes zeroes every one it set, also when it stopped partway.
func (p *pullState) reset() {
	for _, v := range p.awake {
		p.from[v] = 0
	}
	clear(p.read[:len(p.awake)])
	*p = pullState{from: p.from, read: p.read, inbox: p.inbox}
}

// calSize is the number of rounds the wake calendar's ring spans. A power
// of two, so round r's slot is r&(calSize-1).
const calSize = 256

// maxRound is the largest round the calendar stores: far-heap keys pack a
// round into their upper 32 bits. RunBatch caps MaxRounds at it, so a
// later wake, stored as maxRound, fails the run when it comes due, like
// any wake at or past MaxRounds.
const maxRound = math.MaxInt32

// Mem holds the engine's reusable buffers, so a caller executing many runs
// can amortize all engine allocations across runs instead of paying them
// per run: the wake calendar, the awake positions, the round's outbox (its
// broadcasts' senders and A words, their header runs, and its unicasts),
// push's per-receiver counts, the inbox offsets and buffer that a pushed
// round's first At fills in place (there is no staging area), and pull's
// sender bytes and gather scratch. The per-node buffers hold n entries
// each: the positions, the calendar links and the awake set from the
// run's start, and pull's bytes, one per node ID, from the first pulled
// round. A Mem may be reused across runs of different sizes (buffers grow
// to the maximum) but must not be shared by concurrent runs. The zero
// value is ready to use.
type Mem struct {
	// pos[v] is 1 + v's index in the round's awake set from the time the
	// round composes until the node is rescheduled (the router reads it,
	// and a pushed round's first At writes through it), and 0 for a
	// sleeping node and at every other time: each round clears the entries
	// it set, and so does every exit.
	pos   []int32
	awake []int32 // this round's awake set; between rounds, the lane first
	next  []int
	push  pushState
	pull  pullState

	// The wake calendar. The lane holds the nodes of the round just
	// executed that wake in the next round: rescheduling compacts them, in
	// place and ascending, into awake[:lane], and the next round starts
	// from them. Before round 0 it holds the nodes InitAll wakes in round
	// 0, ascending. Every other wake goes to the ring or the far heap. Ring
	// slot r&(calSize-1) lists the nodes waking in round r, for the
	// calSize-1 rounds after the engine's current one, threaded through
	// link (a node waits in at most one slot). head, tail and link hold
	// node+1, so 0 ends a list and the zero Mem has an empty ring. Wakes
	// calSize or more rounds ahead wait in far, a min-heap of
	// round<<32|node keys, and move into the ring as the round advances.
	lane     int
	link     []int32
	head     [calSize]int32
	tail     [calSize]int32
	unsorted [calSize]bool // an insertion broke the slot's ascending order
	pending  int           // nodes in the ring
	far      []uint64
	bitmap   []uint64 // order's bitmap over a round's span
	out      BatchOutbox
}

// NewMem returns an empty buffer pool.
func NewMem() *Mem { return &Mem{} }

func (m *Mem) grow(n int) {
	if cap(m.pos) < n {
		m.pos = make([]int32, n)
	}
	m.pos = m.pos[:n]
	if cap(m.link) < n {
		m.link = make([]int32, n)
	}
	m.link = m.link[:n]
	if cap(m.awake) < n {
		m.awake = make([]int32, 0, n)
	}
}

// ringPush appends v to the ring slot of round r.
func (m *Mem) ringPush(v int32, r int) {
	s := r & (calSize - 1)
	if t := m.tail[s]; t == 0 {
		m.head[s] = v + 1
	} else {
		m.link[t-1] = v + 1
		if v+1 < t {
			m.unsorted[s] = true
		}
	}
	m.tail[s] = v + 1
	m.link[v] = 0
	m.pending++
}

// take returns round r's awake set, ascending: the lane, which rescheduling
// (or, for round 0, the run's start) left at the front of the awake buffer
// (empty unless r follows the round just executed), and then round r's
// ring slot, emptied into the buffer.
// A slot that adds nodes is ordered with the lane through order, unless
// the lane is empty and the slot was filled in ascending order.
func (m *Mem) take(r int) []int32 {
	s := r & (calSize - 1)
	awake := m.awake[:m.lane]
	m.lane = 0
	if m.head[s] == 0 {
		m.awake = awake
		return awake
	}
	lane := len(awake)
	for x := m.head[s]; x != 0; x = m.link[x-1] {
		awake = append(awake, x-1)
	}
	if lane > 0 || m.unsorted[s] {
		m.order(awake)
	}
	m.head[s], m.tail[s], m.unsorted[s] = 0, 0, false
	m.pending -= len(awake) - lane
	m.awake = awake
	return awake
}

// order sorts a round's distinct nodes ascending through a bitmap over
// their span [lo, hi], in O(len(awake) + (hi-lo)/64) and without
// comparisons: it sets one bit per node, then reads the nodes back out
// word by word.
func (m *Mem) order(awake []int32) {
	lo, hi := awake[0], awake[0]
	for _, v := range awake[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	base := lo >> 6
	words := int(hi>>6-base) + 1
	if cap(m.bitmap) < words {
		m.bitmap = make([]uint64, words)
	}
	bm := m.bitmap[:words]
	clear(bm)
	for _, v := range awake {
		bm[v>>6-base] |= 1 << (v & 63)
	}
	i := 0
	for w, word := range bm {
		for ; word != 0; word &= word - 1 {
			awake[i] = (base+int32(w))<<6 | int32(bits.TrailingZeros64(word))
			i++
		}
	}
}

// clearCalendar drops every pending wake, the lane's included, leaving the
// calendar as a zero Mem has it.
func (m *Mem) clearCalendar() {
	m.lane = 0
	if m.pending > 0 {
		m.head = [calSize]int32{}
		m.tail = [calSize]int32{}
		m.unsorted = [calSize]bool{}
		m.pending = 0
	}
	m.far = m.far[:0]
}

// RunBatch executes bm on g until no node is scheduled to wake, and returns
// the measured Result. An error is returned only if the MaxRounds cap is
// hit or bm misbehaves (a non-increasing wake round, a message from a node
// that is not awake or out of awake order, or a unicast to a node that is
// not the sender's neighbor). The zero values of cfg.B and cfg.MaxRounds
// get their documented defaults; cfg.Mem, when non-nil, supplies pooled
// buffers reused across runs.
func RunBatch(g *graph.Graph, bm BatchMachine, cfg Config) (*Result, error) {
	n := g.N()
	if cfg.B == 0 {
		cfg.B = DefaultB(n)
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = 1 << 22
	}
	cfg.MaxRounds = min(cfg.MaxRounds, maxRound)
	mem := cfg.Mem
	if mem == nil {
		mem = NewMem()
	}
	e := &batchEngine{g: g, bm: bm, cfg: cfg, mem: mem, cur: -1}
	return e.run()
}

type batchEngine struct {
	g   *graph.Graph
	bm  BatchMachine
	cfg Config
	mem *Mem
	res Result
	cur int // the round executing or last executed; -1 before round 0
}

// schedule files v's wake in round, which is Never or later than the
// current round (the callers check), in the ring or the far heap.
func (e *batchEngine) schedule(v int32, round int) {
	if round == Never {
		return
	}
	if round < e.cur+calSize { // e.cur <= maxRound, so the sum cannot overflow
		e.mem.ringPush(v, round)
	} else {
		heapPush(&e.mem.far, uint64(min(round, maxRound))<<32|uint64(v))
	}
}

// drain moves the far wakes that now fall within calSize rounds of the
// current one into the ring.
func (e *batchEngine) drain() {
	m := e.mem
	lim := uint64(e.cur+calSize) << 32
	for len(m.far) > 0 && m.far[0] < lim {
		k := heapPop(&m.far)
		m.ringPush(int32(uint32(k)), int(k>>32))
	}
}

// nextRound returns the next round with a pending wake, or -1 when none is
// pending: the round after the current one when the lane holds nodes.
// With the lane and the ring empty it jumps the calendar to the far heap's
// minimum: the rounds in between elapse with every node asleep.
func (e *batchEngine) nextRound() int {
	m := e.mem
	if m.lane > 0 {
		return e.cur + 1
	}
	if m.pending == 0 {
		if len(m.far) == 0 {
			return -1
		}
		e.cur = int(m.far[0]>>32) - 1
		e.drain()
	}
	r := e.cur + 1
	for m.head[r&(calSize-1)] == 0 {
		r++
	}
	return r
}

func (e *batchEngine) run() (*Result, error) {
	n := e.g.N()
	m := e.mem
	m.grow(n)
	e.res.Awake = make([]int32, n) // escapes into the Result; never pooled

	// Leave the Mem reusable on every exit, including error paths and a
	// panicking DeliverAll: drop pending wakes, the lane's included (a
	// retry on the same pool must not see phantom scheduled nodes,
	// possibly from a different graph), clear the positions of the last
	// round's awake set, which a failed route, DeliverAll or reschedule
	// may have left set, so no node of the next run looks awake, and end a
	// pushed or pulled round's state. A reschedule that fails has compacted
	// only entries it already cleared, so the awake buffer still names
	// every node whose position may be set.
	m.push.e = e
	defer func() {
		m.clearCalendar()
		for _, v := range m.awake {
			m.pos[v] = 0
		}
		m.awake = m.awake[:0]
		m.push.e, m.push.written = nil, false
		m.pull.reset()
	}()

	env := BatchEnv{G: e.g, N: n, B: e.cfg.B, Seed: e.cfg.Seed}
	first := e.bm.InitAll(&env)
	if len(first) != n {
		return nil, fmt.Errorf("sim: InitAll returned %d first rounds for %d nodes", len(first), n)
	}
	// Round 0's nodes go straight into the lane, ascending, as the nodes
	// of a round that wake in the next one do; every later wake goes to
	// the calendar.
	lane := m.awake[:0]
	for v, r := range first {
		switch {
		case r == 0:
			lane = append(lane, int32(v))
		case r < 0 && r != Never:
			return nil, fmt.Errorf("sim: node %d scheduled invalid round %d", v, r)
		default:
			e.schedule(int32(v), r)
		}
	}
	m.awake, m.lane = lane, len(lane)

	tr := e.cfg.Tracer
	for {
		// With a tracer attached, the round's wall time is split into
		// stages at t1..t4; schedule covers taking the round's awake set
		// (t0..t1) and clearing its positions as it reschedules it
		// (t4..t5), and compose covers setting them (t1..t2).
		var t0, t1, t2, t3, t4 time.Time
		var snap Result
		if tr != nil {
			t0 = time.Now()
		}
		round := e.nextRound()
		if round < 0 {
			break
		}
		if round >= e.cfg.MaxRounds {
			return nil, fmt.Errorf("sim: exceeded MaxRounds=%d", e.cfg.MaxRounds)
		}
		awake := m.take(round)
		e.cur = round
		if tr != nil {
			snap = e.res // counter snapshot; the round's deltas are diffs against it
			t1 = time.Now()
		}

		// Stage 1: count the awake set's round, give each node its
		// position (route and the deliveries read it), and compose the
		// whole awake set into one outbox, which keeps each broadcast as
		// its sender and A under its run's header.
		for i, v := range awake {
			e.res.Awake[v]++
			m.pos[v] = int32(i) + 1
		}
		m.out.reset()
		e.bm.ComposeAll(round, awake, &m.out)
		if tr != nil {
			t2 = time.Now()
		}

		// Stage 2: route the outbox (senders ascending): push counts each
		// receiver's copies, pull only stores one byte per sender. Neither
		// writes a copy.
		pulled, err := e.route(round, awake)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			t3 = time.Now()
		}

		// Stage 3: deliver (a pushed round's copies are written at its
		// first At, a pulled round's inboxes built or counted as
		// DeliverAll reads them and its drops settled after).
		if cap(m.next) < len(awake) {
			m.next = make([]int, len(awake))
		}
		next := m.next[:len(awake)]
		in := Inboxes{q: &m.push}
		if pulled {
			in = Inboxes{p: &m.pull}
		}
		e.bm.DeliverAll(round, awake, in, next)
		if pulled {
			e.res.MsgsDropped += m.pull.settle()
			m.pull.reset()
		} else {
			m.push.written = false
		}
		if tr != nil {
			t4 = time.Now()
		}

		// Stage 4: clear each node's position and apply its scheduling
		// decision. A node waking next round joins the lane: the awake
		// buffer's front, ascending because awake is, which the next
		// round's take starts from. Every other wake goes to the calendar.
		for i, v := range awake {
			m.pos[v] = 0
			switch w := next[i]; {
			case w == round+1:
				awake[m.lane] = v
				m.lane++
			case w != Never && w <= round:
				return nil, fmt.Errorf("sim: node %d returned wake round %d <= current %d", v, w, round)
			default:
				e.schedule(v, w)
			}
		}
		e.drain()
		if tr != nil {
			t5 := time.Now()
			tr.Round(obs.RoundStats{
				Round:       round,
				Awake:       len(awake),
				MsgsSent:    e.res.MsgsSent - snap.MsgsSent,
				MsgsDropped: e.res.MsgsDropped - snap.MsgsDropped,
				Bits:        e.res.BitsTotal - snap.BitsTotal,
				Violations:  e.res.Violations - snap.Violations,
				ComposeNS:   t2.Sub(t1).Nanoseconds(),
				RouteNS:     t3.Sub(t2).Nanoseconds(),
				DeliverNS:   t4.Sub(t3).Nanoseconds(),
				ScheduleNS:  (t1.Sub(t0) + t5.Sub(t4)).Nanoseconds(),
				WallNS:      t5.Sub(t0).Nanoseconds(),
			})
		}
		e.res.Rounds = round + 1
	}
	return &e.res, nil
}

// route validates and accounts the round's outbox and readies its inboxes
// in routing order: ascending sender; per sender, broadcasts then
// unicasts, each in call order. A one-bit round is pulled (route reports
// true): no unicasts, at least half as many broadcasts as awake nodes,
// exactly one broadcast per sender, and broadcasts in one header run
// with an A of 0 or 1. Pull only stores each sender's byte, and
// Inboxes.At and Count read each inbox from the receiver's row, one byte
// per neighbor. Every other round is pushed: route only counts each
// inbox, and the round's first Inboxes.At writes the copies into the
// inbox buffer, with no staging copy, each broadcast's rebuilt from its
// sender, its A and its run's header.
func (e *batchEngine) route(round int, awake []int32) (pulled bool, err error) {
	if len(e.mem.out.uni) == 0 && 2*len(e.mem.out.from) >= len(awake) && e.pull(awake) {
		return true, nil
	}
	return false, e.push(round, awake)
}

// sender validates the next sender group of the round's outbox: s must be
// awake, and its group must come after the previous group's sender prev
// (-1 for the first group).
func (e *batchEngine) sender(s, prev int32, round int) error {
	if uint(s) >= uint(len(e.mem.pos)) || e.mem.pos[s] == 0 {
		return fmt.Errorf("sim: node %d sent a message in round %d while asleep", s, round)
	}
	if s <= prev {
		return fmt.Errorf("sim: node %d's messages follow node %d's, out of awake order", s, prev)
	}
	return nil
}

// push routes by sender in one pass over the outbox: it validates each
// sender group, rejects unicasts to non-neighbors, accounts traffic, and
// counts each receiver's deliveries and those with a nonzero A (sleeping
// receivers count into the sink, as drops). That is all it does: the
// inboxes are laid out and their copies written only if DeliverAll calls
// Inboxes.At (pushState.write), and Inboxes.Count reads the counts.
func (e *batchEngine) push(round int, awake []int32) error {
	m := e.mem
	q := &m.push
	k := len(awake)
	if cap(q.cnt) < k+1 {
		q.cnt = make([]uint64, k+1)
	}
	cnt := q.cnt[:k+1]
	clear(cnt)
	pos := m.pos

	ob := &m.out
	prev := int32(-1)
	run := 0
	for bi, ui := 0, 0; bi < len(ob.from) || ui < len(ob.uni); {
		s, be, ue := ob.group(bi, ui)
		if err := e.sender(s, prev, round); err != nil {
			return err
		}
		prev = s
		if nbrs := e.g.Neighbors(int(s)); be > bi && len(nbrs) > 0 {
			per := uint64(be - bi)
			for i := bi; i < be; i++ {
				run = ob.runOf(i, run)
				e.account(ob.runs[run].bits, len(nbrs))
				per += nonzero(ob.a[i])
			}
			for _, u := range nbrs {
				cnt[pos[u]] += per
			}
		}
		for i := ui; i < ue; i++ {
			to := ob.uto[i]
			if !e.g.HasEdge(int(s), int(to)) {
				return fmt.Errorf("sim: node %d unicast to non-neighbor %d", s, to)
			}
			e.account(ob.uni[i].Bits, 1)
			cnt[pos[to]] += 1 + nonzero(ob.uni[i].A)
		}
		bi, ui = be, ue
	}
	e.res.MsgsDropped += int64(uint32(cnt[0]))
	q.cnt = cnt
	return nil
}

// nonzero is a copy's increment of its receiver's nonzero count, which
// push keeps in the high half of the receiver's cnt word.
func nonzero(a uint64) uint64 {
	if a != 0 {
		return 1 << 32
	}
	return 0
}

// pull routes a one-bit round of broadcasts by receiver without copying
// them. It takes only an outbox whose broadcasts form one header run, so
// all share Kind, B and Bits. In one pass over the broadcasts' senders
// and A words it validates each broadcast (an awake sender above the
// previous one, so each sends exactly once, with an A of 0 or 1) and
// stores its sender's byte; then it accounts the round's copies at once,
// under the run's header. Each inbox is read from the bytes when
// DeliverAll asks for it (Inboxes.At and Count), and the copies dropped
// are settled after DeliverAll (pullState.settle). pull reports false,
// with no byte left set and the counters untouched, for an outbox of
// several runs or at the first broadcast that does not conform: push then
// routes the round, or names the error.
func (e *batchEngine) pull(awake []int32) bool {
	m := e.mem
	p := &m.pull
	pos := m.pos
	ob := &m.out
	senders, as := ob.from, ob.a[:len(ob.from)]
	first, last := senders[0], senders[len(senders)-1]
	if len(ob.runs) != 1 || first < 0 || last < first || int(last) >= len(pos) {
		return false
	}
	if len(p.from) < len(pos) {
		p.from = make([]byte, len(pos))
	}
	if cap(p.read) < len(awake) {
		p.read = make([]bool, len(awake))
	}
	p.awake = awake
	from := p.from
	var sent int64
	prev := int32(-1)
	for i, s := range senders {
		a := as[i]
		if s <= prev || s > last || pos[s] == 0 || a > 1 {
			p.reset()
			return false
		}
		prev = s
		from[s] = byte(a)<<1 | 1
		sent += int64(e.g.Degree(int(s)))
	}
	h := ob.runs[0].header
	if sent > 0 {
		e.account(h.bits, int(sent))
	}
	p.g, p.hdr, p.sent = e.g, Msg{Kind: h.kind, B: h.b, Bits: h.bits}, sent
	return true
}

// account counts copies of a message of the given declared size.
func (e *batchEngine) account(bits int32, copies int) {
	e.res.MsgsSent += int64(copies)
	e.res.BitsTotal += int64(copies) * int64(bits)
	if int(bits) > e.res.BitsMax {
		e.res.BitsMax = int(bits)
	}
	if int(bits) > e.cfg.B {
		e.res.Violations += int64(copies)
	}
}
