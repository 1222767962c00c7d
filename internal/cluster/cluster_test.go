package cluster

import (
	"testing"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/sim"
)

func TestSingleton(t *testing.T) {
	tr := Singleton(7)
	if !tr.IsRoot() || tr.Depth != 0 || tr.CID != 7 {
		t.Fatalf("singleton = %+v", tr)
	}
}

func TestSlotArithmetic(t *testing.T) {
	const D = 8
	// Broadcast: parent's send round must equal the child's listen round.
	for d := 1; d < D; d++ {
		if BroadcastSendRound(d-1) != BroadcastListenRound(d) {
			t.Fatalf("broadcast slots mismatch at depth %d", d)
		}
	}
	// Convergecast: child's send round must equal the parent's listen round.
	for d := 1; d < D; d++ {
		if ConvergecastSendRound(d, D) != ConvergecastListenRound(d-1, D) {
			t.Fatalf("convergecast slots mismatch at depth %d", d)
		}
	}
	if ConvergecastListenRound(D-1, D) != -1 {
		t.Fatal("deepest node should have no listen round")
	}
}

func TestAwakeRoundsAtMostTwo(t *testing.T) {
	const D = 16
	for d := 0; d < D; d++ {
		for _, op := range []OpKind{OpBroadcast, OpConvergecast} {
			all, k := AwakeRounds(op, d, D)
			if k < 0 || k > 2 {
				t.Fatalf("op %d depth %d: %d awake rounds", op, d, k)
			}
			rs := all[:k]
			for i := 1; i < len(rs); i++ {
				if rs[i] <= rs[i-1] {
					t.Fatalf("op %d depth %d: rounds not increasing: %v", op, d, rs)
				}
			}
			for _, r := range rs {
				if r < 0 || r >= D {
					t.Fatalf("op %d depth %d: round %d outside window", op, d, r)
				}
			}
		}
	}
}

// treeOpMachine runs one broadcast followed by one convergecast on a path
// graph rooted at node 0, exercising the slot schedule end to end: the
// broadcast distributes a value from the root, the convergecast sums node
// IDs back up.
type treeOpMachine struct {
	env   *sim.Env
	tree  Tree
	D     int
	wake  []int
	wi    int
	got   uint64 // broadcast payload received
	sum   uint64 // convergecast aggregate
	final uint64 // root only: total
}

func (m *treeOpMachine) Init(env *sim.Env) int {
	m.env = env
	// On a path, node v's parent is v-1; depth = v.
	m.tree = Tree{Parent: int32(env.Node - 1), Depth: int32(env.Node), CID: 0}
	if env.Node == 0 {
		m.tree.Parent = -1
	}
	m.sum = uint64(env.Node)
	bc, k := AwakeRounds(OpBroadcast, int(m.tree.Depth), m.D)
	m.wake = append(m.wake, bc[:k]...)
	cc, k := AwakeRounds(OpConvergecast, int(m.tree.Depth), m.D)
	for _, r := range cc[:k] {
		m.wake = append(m.wake, m.D+r)
	}
	if len(m.wake) == 0 {
		return sim.Never
	}
	return m.wake[0]
}

func (m *treeOpMachine) Compose(round int, out *sim.Outbox) {
	if round < m.D { // broadcast window
		if round == BroadcastSendRound(int(m.tree.Depth)) {
			payload := m.got
			if m.tree.IsRoot() {
				payload = 42
			}
			// Forward to the child (node+1) if it exists.
			if m.env.Node+1 < m.env.N {
				out.Send(int32(m.env.Node+1), sim.Msg{Kind: 1, A: payload, Bits: 16})
			}
		}
		return
	}
	w := round - m.D // convergecast window
	if w == ConvergecastSendRound(int(m.tree.Depth), m.D) && !m.tree.IsRoot() {
		out.Send(m.tree.Parent, sim.Msg{Kind: 2, A: m.sum, Bits: 16})
	}
}

func (m *treeOpMachine) Deliver(round int, inbox []sim.Msg) int {
	for _, msg := range inbox {
		switch msg.Kind {
		case 1:
			m.got = msg.A
		case 2:
			m.sum += msg.A
		}
	}
	if m.tree.IsRoot() && round == m.D+ConvergecastListenRound(0, m.D) {
		m.final = m.sum
	}
	m.wi++
	if m.wi >= len(m.wake) {
		return sim.Never
	}
	return m.wake[m.wi]
}

func TestBroadcastConvergecastOnPath(t *testing.T) {
	const n = 9
	g := graph.Path(n)
	machines := make([]sim.Machine, n)
	nodes := make([]*treeOpMachine, n)
	for v := range machines {
		nodes[v] = &treeOpMachine{D: n}
		machines[v] = nodes[v]
	}
	res, err := sim.Run(g, machines, sim.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Every node received the root's broadcast value.
	for v := 1; v < n; v++ {
		if nodes[v].got != 42 {
			t.Fatalf("node %d got %d from broadcast", v, nodes[v].got)
		}
	}
	// The root aggregated the full ID sum: 0+1+...+8 = 36.
	if nodes[0].final != 36 {
		t.Fatalf("root aggregate = %d, want 36", nodes[0].final)
	}
	// O(1) awake per node per operation: at most 4 awake rounds total.
	if res.MaxAwake() > 4 {
		t.Fatalf("MaxAwake = %d, want <= 4", res.MaxAwake())
	}
	// Both operations take O(D) rounds.
	if res.Rounds > 2*n {
		t.Fatalf("rounds = %d, want <= %d", res.Rounds, 2*n)
	}
}
