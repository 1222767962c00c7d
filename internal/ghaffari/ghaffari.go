package ghaffari

import (
	"fmt"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/rng"
	"github.com/energymis/energymis/internal/sim"
)

const (
	pMax = 0.5
	pMin = 1.0 / (1 << 20)
)

// Proto is the per-node state of K packed executions. It is embedded in
// larger machines (the Phase III finisher) and driven by Step/Absorb pairs;
// the standalone Machine below adapts it to the engine directly.
type Proto struct {
	K    int
	rand *rng.Stream

	p         []float64 // desire level per execution
	InMIS     []bool    // joined in execution e
	Out       []bool    // a neighbor joined in execution e
	markedNow []uint64  // scratch: this round's own marks, packed
}

// NewProto returns a fresh protocol state for k executions.
func NewProto(k int, rand *rng.Stream) *Proto {
	p := &Proto{
		K:         k,
		rand:      rand,
		p:         make([]float64, k),
		InMIS:     make([]bool, k),
		Out:       make([]bool, k),
		markedNow: make([]uint64, (k+63)/64),
	}
	for i := range p.p {
		p.p[i] = pMax
	}
	return p
}

// Words returns the number of 64-bit words a K-bit vector occupies.
func (p *Proto) Words() int { return (p.K + 63) / 64 }

// Bits returns the message size of one packed vector.
func (p *Proto) Bits() int32 { return int32(p.K) }

// ComposeMarks draws this round's marks and returns them packed. A node
// that is decided (in or out) in execution e never marks in e.
func (p *Proto) ComposeMarks() []uint64 {
	for i := range p.markedNow {
		p.markedNow[i] = 0
	}
	for e := 0; e < p.K; e++ {
		if p.InMIS[e] || p.Out[e] {
			continue
		}
		if p.rand.Bernoulli(p.p[e]) {
			p.markedNow[e>>6] |= 1 << (uint(e) & 63)
		}
	}
	return p.markedNow
}

// AbsorbMarks processes the packed mark vectors received from neighbors:
// it decides joins (marked with no marked neighbor) and updates desire
// levels (halve on >=1 marked neighbor, else double, capped). It returns
// the packed join vector to announce.
func (p *Proto) AbsorbMarks(neighborMarks [][]uint64) []uint64 {
	nbrAny := make([]uint64, p.Words())
	for _, v := range neighborMarks {
		for i := range nbrAny {
			if i < len(v) {
				nbrAny[i] |= v[i]
			}
		}
	}
	joins := make([]uint64, p.Words())
	for e := 0; e < p.K; e++ {
		if p.InMIS[e] || p.Out[e] {
			continue
		}
		w, b := e>>6, uint64(1)<<(uint(e)&63)
		nbrMarked := nbrAny[w]&b != 0
		selfMarked := p.markedNow[w]&b != 0
		if selfMarked && !nbrMarked {
			p.InMIS[e] = true
			joins[w] |= b
		}
		if nbrMarked {
			p.p[e] /= 2
			if p.p[e] < pMin {
				p.p[e] = pMin
			}
		} else {
			p.p[e] *= 2
			if p.p[e] > pMax {
				p.p[e] = pMax
			}
		}
	}
	return joins
}

// AbsorbJoins processes neighbors' packed join vectors: any join in
// execution e knocks this node out of e (unless it joined itself, which
// cannot coincide with a neighbor join in a correct run).
func (p *Proto) AbsorbJoins(neighborJoins [][]uint64) {
	for _, v := range neighborJoins {
		for e := 0; e < p.K; e++ {
			if e>>6 < len(v) && v[e>>6]&(1<<(uint(e)&63)) != 0 && !p.InMIS[e] {
				p.Out[e] = true
			}
		}
	}
}

// Undecided reports whether the node is undecided in execution e.
func (p *Proto) Undecided(e int) bool { return !p.InMIS[e] && !p.Out[e] }

// AllDecided reports whether the node is decided in every execution.
func (p *Proto) AllDecided() bool {
	for e := 0; e < p.K; e++ {
		if p.Undecided(e) {
			return false
		}
	}
	return true
}

// SuccessVector returns the packed per-execution success bits for this
// node: success in e means the node is decided in e.
func (p *Proto) SuccessVector() []uint64 {
	out := make([]uint64, p.Words())
	for e := 0; e < p.K; e++ {
		if !p.Undecided(e) {
			out[e>>6] |= 1 << (uint(e) & 63)
		}
	}
	return out
}

// Message kinds for the standalone machine.
const (
	kindMarks = 11
	kindJoins = 12
)

// Machine runs K packed executions for a fixed number of logical rounds,
// with every node awake throughout (the regime of Lemma 2.6: the input
// degree is poly(log n), so the whole run costs O(log Δ) awake rounds).
type Machine struct {
	env    *sim.Env
	proto  *Proto
	rounds int
	k      int

	inbox        [][]uint64 // scratch for this round's vectors
	pendingJoins []uint64   // join vector carried from mark to join sub-round
}

var _ sim.Machine = (*Machine)(nil)

// NewMachine returns a machine running k executions for `rounds` logical
// rounds (2 engine rounds each).
func NewMachine(k, rounds int) *Machine {
	return &Machine{k: k, rounds: rounds}
}

// Proto exposes the underlying execution state after a run.
func (m *Machine) Proto() *Proto { return m.proto }

// Init implements sim.Machine.
func (m *Machine) Init(env *sim.Env) int {
	m.env = env
	m.proto = NewProto(m.k, env.Rand)
	return 0
}

// Compose implements sim.Machine.
func (m *Machine) Compose(round int, out *sim.Outbox) {
	if round/2 >= m.rounds {
		return
	}
	if round%2 == 0 {
		marks := m.proto.ComposeMarks()
		out.Broadcast(packMsg(kindMarks, marks, m.proto.Bits()))
	} else {
		joins := m.pendingJoins
		if anySet(joins) {
			out.Broadcast(packMsg(kindJoins, joins, m.proto.Bits()))
		}
	}
}

// Deliver implements sim.Machine.
func (m *Machine) Deliver(round int, inbox []sim.Msg) int {
	m.inbox = m.inbox[:0]
	for _, msg := range inbox {
		m.inbox = append(m.inbox, unpackMsg(msg))
	}
	if round%2 == 0 {
		m.pendingJoins = m.proto.AbsorbMarks(m.inbox)
	} else {
		m.proto.AbsorbJoins(m.inbox)
		// A node decided in every execution has nothing left to send or
		// learn; it sleeps out the remaining rounds. (The paper keeps all
		// nodes awake in Phase II as an upper bound; sleeping decided
		// nodes is model-legal and only lowers energy.)
		if m.proto.AllDecided() {
			return sim.Never
		}
	}
	if round+1 >= 2*m.rounds {
		return sim.Never
	}
	return round + 1
}

// packMsg packs up to 128 bits of vector into a Msg (the engine payload
// carries two words; K <= 128 covers every feasible configuration since
// K = Θ(log n)).
func packMsg(kind uint8, words []uint64, bits int32) sim.Msg {
	msg := sim.Msg{Kind: kind, Bits: bits}
	if len(words) > 0 {
		msg.A = words[0]
	}
	if len(words) > 1 {
		msg.B = words[1]
	}
	if len(words) > 2 {
		panic(fmt.Sprintf("ghaffari: K=%d exceeds 128 packed bits", bits))
	}
	return msg
}

func unpackMsg(m sim.Msg) []uint64 { return []uint64{m.A, m.B} }

func anySet(words []uint64) bool {
	for _, w := range words {
		if w != 0 {
			return true
		}
	}
	return false
}

// RunShatter executes one (K=1) run of the dynamics for `rounds` logical
// rounds on g and returns the independent set found, the undecided
// survivors, and the engine result. It runs the struct-of-arrays automaton
// on the batch runtime; results are byte-identical to RunShatterLegacy
// (the per-node reference).
func RunShatter(g *graph.Graph, rounds int, cfg sim.Config) (inSet []bool, survivors []int, res *sim.Result, err error) {
	b := NewBatch(g, 1, rounds)
	res, err = sim.RunBatch(g, b, cfg)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("ghaffari: %w", err)
	}
	return b.InMISExec(0), b.UndecidedExec(0), res, nil
}

// RunShatterLegacy executes the per-node Machine implementation through
// sim.Run: the reference the batch automaton is differentially tested
// against.
func RunShatterLegacy(g *graph.Graph, rounds int, cfg sim.Config) (inSet []bool, survivors []int, res *sim.Result, err error) {
	machines := make([]sim.Machine, g.N())
	nodes := make([]*Machine, g.N())
	for v := range machines {
		nodes[v] = NewMachine(1, rounds)
		machines[v] = nodes[v]
	}
	res, err = sim.Run(g, machines, cfg)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("ghaffari: %w", err)
	}
	inSet = make([]bool, g.N())
	for v, nm := range nodes {
		inSet[v] = nm.proto.InMIS[0]
		if nm.proto.Undecided(0) {
			survivors = append(survivors, v)
		}
	}
	return inSet, survivors, res, nil
}
