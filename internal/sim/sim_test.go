package sim

import (
	"fmt"
	"testing"

	"github.com/energymis/energymis/internal/graph"
)

// floodMachine broadcasts its ID in round 0 and records what it hears; it
// then stays awake for `extra` more rounds doing nothing.
type floodMachine struct {
	env   *Env
	heard []int32
	extra int
}

func (m *floodMachine) Init(env *Env) int { m.env = env; return 0 }

func (m *floodMachine) Compose(round int, out *Outbox) {
	if round == 0 {
		out.Broadcast(Msg{Kind: 1, A: uint64(m.env.Node), Bits: 16})
	}
}

func (m *floodMachine) Deliver(round int, inbox []Msg) int {
	for _, msg := range inbox {
		m.heard = append(m.heard, msg.From)
	}
	if round < m.extra {
		return round + 1
	}
	return Never
}

func TestBroadcastReachesAwakeNeighbors(t *testing.T) {
	g := graph.Cycle(5)
	machines := make([]Machine, 5)
	for v := range machines {
		machines[v] = &floodMachine{}
	}
	res, err := Run(g, machines, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", res.Rounds)
	}
	for v, m := range machines {
		fm := m.(*floodMachine)
		if len(fm.heard) != 2 {
			t.Fatalf("node %d heard %d messages, want 2", v, len(fm.heard))
		}
	}
	if res.MsgsSent != 10 { // each node broadcasts on 2 edges
		t.Fatalf("MsgsSent = %d", res.MsgsSent)
	}
	if res.MsgsDropped != 0 {
		t.Fatalf("MsgsDropped = %d", res.MsgsDropped)
	}
	if res.MaxAwake() != 1 {
		t.Fatalf("MaxAwake = %d", res.MaxAwake())
	}
}

// sleeperMachine: node 0 broadcasts every round it is awake (rounds 0..2);
// node 1 sleeps in round 1 and must not receive that round's message.
type sleeperMachine struct {
	env      *Env
	schedule []int // rounds to be awake, consumed in order
	received []int // rounds in which a message arrived
}

func (m *sleeperMachine) Init(env *Env) int {
	m.env = env
	if len(m.schedule) == 0 {
		return Never
	}
	return m.schedule[0]
}

func (m *sleeperMachine) Compose(round int, out *Outbox) {
	if m.env.Node == 0 {
		out.Broadcast(Msg{Kind: 2, Bits: 1})
	}
}

func (m *sleeperMachine) Deliver(round int, inbox []Msg) int {
	if len(inbox) > 0 {
		m.received = append(m.received, round)
	}
	for i, r := range m.schedule {
		if r == round && i+1 < len(m.schedule) {
			return m.schedule[i+1]
		}
	}
	return Never
}

func TestSleepingNodeReceivesNothing(t *testing.T) {
	g := graph.Path(2)
	sender := &sleeperMachine{schedule: []int{0, 1, 2}}
	receiver := &sleeperMachine{schedule: []int{0, 2}}
	res, err := Run(g, []Machine{sender, receiver}, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := receiver.received; len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("receiver got messages in rounds %v, want [0 2]", got)
	}
	if res.MsgsDropped != 1 {
		t.Fatalf("MsgsDropped = %d, want 1 (round-1 message)", res.MsgsDropped)
	}
	if res.Awake[0] != 3 || res.Awake[1] != 2 {
		t.Fatalf("awake counts = %v", res.Awake)
	}
	if res.Rounds != 3 {
		t.Fatalf("rounds = %d", res.Rounds)
	}
}

func TestNeverWakingNodeCostsNothing(t *testing.T) {
	g := graph.Star(4)
	machines := []Machine{
		&sleeperMachine{schedule: []int{0}},
		&sleeperMachine{}, // never wakes
		&sleeperMachine{schedule: []int{0}},
		&sleeperMachine{schedule: []int{0}},
	}
	res, err := Run(g, machines, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Awake[1] != 0 {
		t.Fatalf("sleeping node awake %d rounds", res.Awake[1])
	}
	// Center broadcast to 3 leaves; leaf 1 asleep.
	if res.MsgsDropped != 1 {
		t.Fatalf("MsgsDropped = %d", res.MsgsDropped)
	}
}

// unicastMachine sends its ID to its lowest neighbor only.
type unicastMachine struct {
	env   *Env
	heard []int32
}

func (m *unicastMachine) Init(env *Env) int { m.env = env; return 0 }
func (m *unicastMachine) Compose(round int, out *Outbox) {
	if len(m.env.Neighbors) > 0 {
		out.Send(m.env.Neighbors[0], Msg{Kind: 3, A: uint64(m.env.Node), Bits: 8})
	}
}
func (m *unicastMachine) Deliver(round int, inbox []Msg) int {
	for _, msg := range inbox {
		m.heard = append(m.heard, msg.From)
	}
	return Never
}

func TestUnicast(t *testing.T) {
	g := graph.Path(3) // 0-1-2
	ms := []Machine{&unicastMachine{}, &unicastMachine{}, &unicastMachine{}}
	if _, err := Run(g, ms, Config{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	// 0 sends to 1; 1 sends to 0; 2 sends to 1.
	if h := ms[0].(*unicastMachine).heard; len(h) != 1 || h[0] != 1 {
		t.Fatalf("node 0 heard %v", h)
	}
	if h := ms[1].(*unicastMachine).heard; len(h) != 2 || h[0] != 0 || h[1] != 2 {
		t.Fatalf("node 1 heard %v (inbox must be sender-sorted)", h)
	}
	if h := ms[2].(*unicastMachine).heard; len(h) != 0 {
		t.Fatalf("node 2 heard %v", h)
	}
}

func TestCongestAccounting(t *testing.T) {
	g := graph.Path(2)
	big := &fixedBitsMachine{bits: 10_000}
	small := &fixedBitsMachine{bits: 4}
	res, err := Run(g, []Machine{big, small}, Config{Seed: 1, B: 32})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 1 {
		t.Fatalf("Violations = %d, want 1", res.Violations)
	}
	if res.BitsMax != 10_000 {
		t.Fatalf("BitsMax = %d", res.BitsMax)
	}
	if res.BitsTotal != 10_004 {
		t.Fatalf("BitsTotal = %d", res.BitsTotal)
	}
}

type fixedBitsMachine struct{ bits int32 }

func (m *fixedBitsMachine) Init(env *Env) int { return 0 }
func (m *fixedBitsMachine) Compose(round int, out *Outbox) {
	out.Broadcast(Msg{Bits: m.bits})
}
func (m *fixedBitsMachine) Deliver(round int, inbox []Msg) int { return Never }

func TestMachineCountMismatch(t *testing.T) {
	if _, err := Run(graph.Path(3), []Machine{&floodMachine{}}, Config{}); err == nil {
		t.Fatal("expected error for machine count mismatch")
	}
}

// badMachine returns a non-increasing wake round.
type badMachine struct{}

func (m *badMachine) Init(env *Env) int                  { return 0 }
func (m *badMachine) Compose(round int, out *Outbox)     {}
func (m *badMachine) Deliver(round int, inbox []Msg) int { return 0 }

func TestNonIncreasingWakeRejected(t *testing.T) {
	if _, err := Run(graph.Path(1), []Machine{&badMachine{}}, Config{}); err == nil {
		t.Fatal("expected error for non-increasing wake round")
	}
}

// loopMachine never stops.
type loopMachine struct{}

func (m *loopMachine) Init(env *Env) int                  { return 0 }
func (m *loopMachine) Compose(round int, out *Outbox)     {}
func (m *loopMachine) Deliver(round int, inbox []Msg) int { return round + 1 }

func TestMaxRoundsCap(t *testing.T) {
	if _, err := Run(graph.Path(1), []Machine{&loopMachine{}}, Config{MaxRounds: 10}); err == nil {
		t.Fatal("expected MaxRounds error")
	}
}

func TestRoundSkipping(t *testing.T) {
	// A node sleeping until round 100 costs 1 awake round but the run
	// lasts 101 rounds of wall-clock time.
	g := graph.Path(1)
	m := &sleeperMachine{schedule: []int{100}}
	res, err := Run(g, []Machine{m}, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 101 {
		t.Fatalf("Rounds = %d, want 101", res.Rounds)
	}
	if res.Awake[0] != 1 {
		t.Fatalf("Awake = %d, want 1", res.Awake[0])
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	g := graph.GNP(200, 0.05, 3)
	run := func() []int32 {
		machines := make([]Machine, g.N())
		for v := range machines {
			machines[v] = &randomTalker{rounds: 20}
		}
		res, err := Run(g, machines, Config{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		sums := make([]int32, g.N())
		for v, m := range machines {
			sums[v] = m.(*randomTalker).checksum
		}
		_ = res
		return sums
	}
	a, b := run(), run()
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("node %d checksum differs across identical runs", v)
		}
	}
}

// nonNeighborSender violates the model: node 0 unicasts to `to`, which is
// not one of its neighbors.
type nonNeighborSender struct {
	env *Env
	to  int32
}

func (m *nonNeighborSender) Init(env *Env) int { m.env = env; return 0 }
func (m *nonNeighborSender) Compose(round int, out *Outbox) {
	if m.env.Node == 0 {
		out.Send(m.to, Msg{Bits: 1})
	}
}
func (m *nonNeighborSender) Deliver(round int, inbox []Msg) int { return Never }

// TestParallelRejectsNonNeighborUnicast: Run and its reference runPerNode
// fail the run with a named error when a node unicasts across a non-edge —
// to a node that exists (2 on the path 0-1-2) or to one that does not (3).
func TestParallelRejectsNonNeighborUnicast(t *testing.T) {
	g := graph.Path(3)
	for _, to := range []int32{2, 3} {
		mk := func() []Machine {
			return []Machine{&nonNeighborSender{to: to}, &nonNeighborSender{to: to}, &nonNeighborSender{to: to}}
		}
		want := fmt.Sprintf("sim: node 0 unicast to non-neighbor %d", to)
		if _, err := Run(g, mk(), Config{Seed: 1}); err == nil || err.Error() != want {
			t.Fatalf("Run, to=%d: err = %v, want %q", to, err, want)
		}
		if _, err := runPerNode(g, mk(), Config{Seed: 1}); err == nil || err.Error() != want {
			t.Fatalf("runPerNode, to=%d: err = %v, want %q", to, err, want)
		}
	}
}

// randomTalker sends random payloads to random neighbors for a fixed
// number of rounds, sleeping on odd personal coin flips; it folds all
// received payloads into a checksum. Exercises scheduling + determinism.
type randomTalker struct {
	env      *Env
	rounds   int
	checksum int32
}

func (m *randomTalker) Init(env *Env) int {
	m.env = env
	return int(env.Rand.Uint64() % 3)
}

func (m *randomTalker) Compose(round int, out *Outbox) {
	if m.env.Degree == 0 {
		return
	}
	if m.env.Rand.Bernoulli(0.7) {
		to := m.env.Neighbors[m.env.Rand.Intn(m.env.Degree)]
		out.Send(to, Msg{Kind: 9, A: m.env.Rand.Uint64() & 0xFFFF, Bits: 16})
	} else {
		out.Broadcast(Msg{Kind: 10, A: uint64(round), Bits: 16})
	}
}

func (m *randomTalker) Deliver(round int, inbox []Msg) int {
	for _, msg := range inbox {
		m.checksum = m.checksum*31 + int32(msg.A) + msg.From
	}
	if round >= m.rounds {
		return Never
	}
	return round + 1 + int(m.env.Rand.Uint64()%2)
}

func TestEnvContents(t *testing.T) {
	g := graph.Star(4)
	probe := &envProbe{}
	ms := []Machine{probe, &envProbe{}, &envProbe{}, &envProbe{}}
	if _, err := Run(g, ms, Config{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if probe.env.N != 4 || probe.env.Degree != 3 || probe.env.Node != 0 {
		t.Fatalf("env wrong: %+v", probe.env)
	}
	if probe.env.B != DefaultB(4) {
		t.Fatalf("B = %d", probe.env.B)
	}
	if probe.env.Rand == nil {
		t.Fatal("nil Rand")
	}
}

type envProbe struct{ env *Env }

func (m *envProbe) Init(env *Env) int                  { m.env = env; return Never }
func (m *envProbe) Compose(round int, out *Outbox)     {}
func (m *envProbe) Deliver(round int, inbox []Msg) int { return Never }

func TestDefaultB(t *testing.T) {
	if DefaultB(1) != 16 {
		t.Fatalf("DefaultB(1) = %d", DefaultB(1))
	}
	if DefaultB(1024) != 40 {
		t.Fatalf("DefaultB(1024) = %d", DefaultB(1024))
	}
	if DefaultB(1025) != 44 {
		t.Fatalf("DefaultB(1025) = %d", DefaultB(1025))
	}
}
