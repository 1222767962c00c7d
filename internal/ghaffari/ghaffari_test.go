package ghaffari

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/rng"
	"github.com/energymis/energymis/internal/sim"
	"github.com/energymis/energymis/internal/verify"
)

// newProto returns a Proto reset to k executions with their own levels.
func newProto(k int, rand *rng.Stream) *Proto {
	p := new(Proto)
	p.Reset(make([]float64, k), rand)
	return p
}

func TestProtoJoinsAreIndependent(t *testing.T) {
	// Two adjacent nodes both marked in the same execution: neither joins.
	a := newProto(1, rng.New(1))
	b := newProto(1, rng.New(2))
	// Force both marked by setting p = 1 via repeated attempts.
	a.p[0], b.p[0] = 1, 1
	am := a.ComposeMarks()
	bm := b.ComposeMarks()
	if am&1 == 0 || bm&1 == 0 {
		t.Fatal("p=1 nodes did not mark")
	}
	aj := a.AbsorbMarks(bm)
	bj := b.AbsorbMarks(am)
	if aj&1 != 0 || bj&1 != 0 {
		t.Fatal("both-marked neighbors joined")
	}
	if a.InMIS(0) || b.InMIS(0) {
		t.Fatal("InMIS set despite conflict")
	}
}

func TestProtoLoneMarkJoins(t *testing.T) {
	a := newProto(1, rng.New(1))
	a.p[0] = 1
	a.ComposeMarks()
	joins := a.AbsorbMarks(0)
	if joins&1 == 0 || !a.InMIS(0) {
		t.Fatal("lone marked node did not join")
	}
}

func TestDesireLevelDynamics(t *testing.T) {
	a := newProto(1, rng.New(1))
	start := a.p[0]
	// A marked neighbor halves p.
	a.ComposeMarks()
	a.AbsorbMarks(1)
	if a.p[0] != start/2 {
		t.Fatalf("p = %v after marked neighbor, want %v", a.p[0], start/2)
	}
	// No marked neighbor doubles p (capped at 1/2).
	a.ComposeMarks()
	if a.InMIS(0) {
		// The node may have joined; restart with a fresh proto and a seed
		// that does not mark.
		a = newProto(1, rng.New(3))
		a.p[0] = start / 2
	}
	a.marked = 0 // treat as unmarked this round
	a.AbsorbMarks(0)
	if a.p[0] != start {
		t.Fatalf("p = %v after quiet round, want %v", a.p[0], start)
	}
	a.marked = 0
	a.AbsorbMarks(0)
	if a.p[0] != pMax {
		t.Fatalf("p = %v exceeded cap", a.p[0])
	}
}

// TestDesireLevelFloorAndCap drives one desire level through nextDesire,
// and the same rounds through Proto.AbsorbMarks (the node never marks, so
// it stays undecided): from 1/2, 25 rounds with a marked neighbor reach
// the floor pMin = 2⁻²⁰ after exactly 19 and leave it there, and 25 quiet
// rounds double it back to the cap 1/2 after 19 and keep it there.
func TestDesireLevelFloorAndCap(t *testing.T) {
	proto := newProto(1, rng.New(1))
	p := pMax
	step := func(nbrMarked bool, want float64, what string) {
		t.Helper()
		p = nextDesire(p, nbrMarked)
		var marks uint64
		if nbrMarked {
			marks = 1
		}
		proto.AbsorbMarks(marks)
		if p != want || proto.p[0] != want {
			t.Fatalf("%s: nextDesire gives %g and AbsorbMarks %g, want %g", what, p, proto.p[0], want)
		}
	}
	for i := 1; i <= 25; i++ {
		step(true, math.Ldexp(1, -1-min(i, 19)), fmt.Sprintf("marked round %d", i))
	}
	if p != pMin {
		t.Fatalf("floor %g, want pMin = %g", p, pMin)
	}
	for i := 1; i <= 25; i++ {
		step(false, math.Ldexp(1, -20+min(i, 19)), fmt.Sprintf("quiet round %d", i))
	}
	if p != pMax || proto.AllDecided() {
		t.Fatalf("cap %g (want pMax = %g), decided %v", p, pMax, proto.AllDecided())
	}
}

func TestAbsorbJoinsKnocksOut(t *testing.T) {
	a := newProto(2, rng.New(1))
	a.AbsorbJoins(0b110) // neighbor joined executions 1 and 2 (2 >= K)
	if a.Decided() != 0b10 {
		t.Fatalf("Decided = %b, want 10", a.Decided())
	}
	if a.InMIS(0) || a.InMIS(1) || a.AllDecided() {
		t.Fatal("knocked-out node joined, or execution 0 decided")
	}
}

func TestShatterProducesIndependentSet(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.GNP(400, 0.02, 1),
		graph.Complete(30),
		graph.Cycle(100),
		graph.BarabasiAlbert(300, 3, 2),
	} {
		inSet, survivors, _, err := RunShatter(g, 25, sim.Config{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if ok, u, v := verify.IsIndependent(g, inSet); !ok {
			t.Fatalf("not independent: (%d,%d)", u, v)
		}
		// Survivors must be exactly the nodes not in the set and not
		// dominated by it.
		rest := verify.Residual(g, inSet)
		if len(rest) != len(survivors) {
			t.Fatalf("survivors %d != residual %d", len(survivors), len(rest))
		}
	}
}

func TestShatterDecidesMostNodes(t *testing.T) {
	// With Θ(log Δ) + slack rounds, the undecided fraction should be tiny.
	g := graph.GNP(3000, 8.0/3000, 3)
	_, survivors, _, err := RunShatter(g, 30, sim.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(survivors) > g.N()/20 {
		t.Fatalf("%d/%d survivors after shattering", len(survivors), g.N())
	}
}

func TestShatterComponentsSmall(t *testing.T) {
	g := graph.NearRegular(4000, 10, 7)
	inSet, survivors, _, err := RunShatter(g, 40, sim.Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	_ = inSet
	if len(survivors) == 0 {
		return // fully decided is fine
	}
	var cc graph.Components
	if cc.Find(graph.InducedSubgraph(g, survivors).Graph); cc.MaxSize() > 200 {
		t.Fatalf("survivor component of size %d; shattering failed", cc.MaxSize())
	}
}

func TestParallelExecutionsDecideComponent(t *testing.T) {
	// On a small component, K = 24 executions of Θ(log n) rounds should
	// contain at least one execution that decided every node.
	g := graph.GNP(60, 0.1, 9)
	machines := make([]sim.Machine, g.N())
	nodes := make([]*Machine, g.N())
	for v := range machines {
		nodes[v] = NewMachine(24, 30)
		machines[v] = nodes[v]
	}
	if _, err := sim.Run(g, machines, sim.Config{Seed: 3, B: 64}); err != nil {
		t.Fatal(err)
	}
	// AND the success vectors.
	and := ^uint64(0)
	for _, nm := range nodes {
		and &= nm.proto.Decided()
	}
	if and == 0 {
		t.Fatal("no execution decided every node")
	}
	// The winning execution is a valid MIS.
	e := bits.TrailingZeros64(and)
	inSet := make([]bool, g.N())
	for v, nm := range nodes {
		inSet[v] = nm.proto.InMIS(e)
	}
	if err := verify.Check(g, inSet); err != nil {
		t.Fatal(err)
	}
}

func TestMessageSizes(t *testing.T) {
	g := graph.GNP(200, 0.05, 4)
	machines := make([]sim.Machine, g.N())
	for v := range machines {
		machines[v] = NewMachine(32, 20)
	}
	res, err := sim.Run(g, machines, sim.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.BitsMax > 32 {
		t.Fatalf("BitsMax = %d, want <= K = 32", res.BitsMax)
	}
	if res.Violations != 0 {
		t.Fatalf("violations: %d", res.Violations)
	}
}

func TestEnergyIsBounded(t *testing.T) {
	g := graph.GNP(500, 0.02, 6)
	machines := make([]sim.Machine, g.N())
	for v := range machines {
		machines[v] = NewMachine(1, 15)
	}
	res, err := sim.Run(g, machines, sim.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxAwake() > 30 {
		t.Fatalf("MaxAwake = %d, want <= 2*rounds = 30", res.MaxAwake())
	}
}
