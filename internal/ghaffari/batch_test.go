package ghaffari

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/rng"
	"github.com/energymis/energymis/internal/sim"
)

// Machine is the per-node specification of the dynamics: K ≤ MaxK packed
// executions of Proto for a fixed number of logical rounds, with every
// node awake until it is decided in every execution (the regime of
// Lemma 2.6: the input degree is poly(log n), so the whole run costs
// O(log Δ) awake rounds). At K = 1 it is what RunShatter's Batch
// executes; larger K is the parallel-executions form of Lemma 2.7.
type Machine struct {
	env    *sim.Env
	proto  Proto
	rounds int
	k      int

	pendingJoins uint64 // join vector carried from mark to join sub-round
}

var _ sim.Machine = (*Machine)(nil)

// NewMachine returns a machine running k executions for `rounds` logical
// rounds (2 engine rounds each).
func NewMachine(k, rounds int) *Machine {
	return &Machine{k: k, rounds: rounds}
}

// Init implements sim.Machine.
func (m *Machine) Init(env *sim.Env) int {
	m.env = env
	m.proto.Reset(make([]float64, m.k), env.Rand)
	return 0
}

// Compose implements sim.Machine.
func (m *Machine) Compose(round int, out *sim.Outbox) {
	if round/2 >= m.rounds {
		return
	}
	if round%2 == 0 {
		out.Broadcast(sim.Msg{Kind: kindMarks, A: m.proto.ComposeMarks(), Bits: m.proto.Bits()})
	} else if m.pendingJoins != 0 {
		out.Broadcast(sim.Msg{Kind: kindJoins, A: m.pendingJoins, Bits: m.proto.Bits()})
	}
}

// Deliver implements sim.Machine.
func (m *Machine) Deliver(round int, inbox []sim.Msg) int {
	var nbr uint64 // the OR of the neighbors' vectors
	for _, msg := range inbox {
		nbr |= msg.A
	}
	if round%2 == 0 {
		m.pendingJoins = m.proto.AbsorbMarks(nbr)
	} else {
		m.proto.AbsorbJoins(nbr)
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

// runShatterLegacy executes one (K=1) run of the per-node Machine through
// sim.Run: the reference RunShatter is differentially tested against.
func runShatterLegacy(g *graph.Graph, rounds int, cfg sim.Config) (inSet []bool, survivors []int, res *sim.Result, err error) {
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
		inSet[v] = nm.proto.InMIS(0)
		if !nm.proto.AllDecided() {
			survivors = append(survivors, v)
		}
	}
	return inSet, survivors, res, nil
}

// matchesPerNode runs RunShatter and the per-node Machines on g and fails
// unless they agree on the set, the survivors, every sim.Result counter
// and every node's awake rounds.
func matchesPerNode(t *testing.T, g *graph.Graph, rounds int, seed uint64) {
	t.Helper()
	ctx := fmt.Sprintf("n=%d rounds=%d seed=%d", g.N(), rounds, seed)
	refSet, refSurv, ref, err := runShatterLegacy(g, rounds, sim.Config{Seed: seed})
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	set, surv, got, err := RunShatter(g, rounds, sim.Config{Seed: seed})
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	if !slices.Equal(set, refSet) {
		t.Fatalf("%s: sets differ\n legacy: %v\n batch:  %v", ctx, refSet, set)
	}
	if !slices.Equal(surv, refSurv) {
		t.Fatalf("%s: survivors differ\n legacy: %v\n batch:  %v", ctx, refSurv, surv)
	}
	if got.Rounds != ref.Rounds || got.MsgsSent != ref.MsgsSent ||
		got.MsgsDropped != ref.MsgsDropped || got.BitsTotal != ref.BitsTotal ||
		got.BitsMax != ref.BitsMax || got.Violations != ref.Violations {
		t.Fatalf("%s: counters differ\n legacy: %+v\n batch:  %+v", ctx, ref, got)
	}
	if !slices.Equal(got.Awake, ref.Awake) {
		t.Fatalf("%s: awake rounds differ\n legacy: %v\n batch:  %v", ctx, ref.Awake, got.Awake)
	}
}

// TestBatchMatchesLegacy is the differential gate of the batch port: for
// every graph shape and seed, the struct-of-arrays batch automaton must
// produce the per-node reference's set, survivors and complexity
// counters.
func TestBatchMatchesLegacy(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", graph.GNP(400, 10.0/400, 3)},
		{"clique", graph.Complete(40)},
		{"path", graph.Path(60)},
		{"star", graph.Star(50)},
		{"isolated", graph.FromEdges(8, [][2]int{{0, 1}})},
		{"empty", graph.FromEdges(0, nil)},
	}
	for _, tc := range cases {
		for seed := uint64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				matchesPerNode(t, tc.g, 12, seed)
			})
		}
	}
}

// shatterRounds is shatter.DefaultParams().Rounds(g.MaxDegree()), the
// round count Phase II runs on g (this package cannot import shatter).
func shatterRounds(g *graph.Graph) int {
	return int(math.Ceil(2*math.Log2(float64(g.MaxDegree()+2)))) + 4
}

// TestRunShatterMatchesLegacy checks the shattering entry point end to end
// (same set, same survivors, same counters): on one GNP at 0, 1 and 9
// rounds, and on the graphs of shatter.TestBatchMatchesLegacy at the
// rounds Phase II runs on them.
func TestRunShatterMatchesLegacy(t *testing.T) {
	g := graph.GNP(500, 12.0/500, 7)
	for _, rounds := range []int{0, 1, 9} {
		for seed := uint64(1); seed <= 3; seed++ {
			matchesPerNode(t, g, rounds, seed)
		}
	}
	for _, g := range []*graph.Graph{
		graph.GNP(600, 10.0/600, 3),
		graph.RGG(300, 8, 5),
		graph.Complete(50),
		graph.FromEdges(10, [][2]int{{0, 1}}),
		graph.FromEdges(0, nil),
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			matchesPerNode(t, g, shatterRounds(g), seed)
		}
	}
}

// TestDesireExponentMatchesFloat holds Batch's one-byte state to the float
// rule of the specification at every exponent the state may hold, 1 to
// 20, which the differential tests do not reach: the deepest exponent
// their inputs take a node to is far above the floor. For both feedbacks,
// afterMarks moves exponent k to a k′ with 2⁻ᵏ′ = nextDesire(2⁻ᵏ,
// nbrMarked), joins a marked node exactly when no neighbor marked, clears
// the mark and keeps the other flags. marks gives Bernoulli(2⁻ᵏ)'s outcome
// on the same draw, over 4,096 draws per k, each the next Uint64 of a
// clone of Bernoulli's stream that must then be at the same position; and
// at every k it marks on the largest draw below 2⁶⁴⁻ᵏ and not on 2⁶⁴⁻ᵏ.
func TestDesireExponentMatchesFloat(t *testing.T) {
	for k := uint8(1); k <= 20; k++ {
		p := math.Ldexp(1, -int(k))
		for _, nbr := range []uint8{0, 1} {
			for _, flags := range []uint8{0, fMarked, fInMIS, fOut} {
				s := afterMarks(k<<kShift|flags, nbr)
				if got, want := math.Ldexp(1, -int(s>>kShift)), nextDesire(p, nbr == 1); got != want {
					t.Fatalf("k=%d, neighbor marked %d: level %g, nextDesire gives %g", k, nbr, got, want)
				}
				want := flags &^ fMarked
				if flags == fMarked && nbr == 0 {
					want |= fInMIS
				}
				if got := s & (1<<kShift - 1); got != want {
					t.Fatalf("k=%d, neighbor marked %d, flags %03b: flags %03b after, want %03b", k, nbr, flags, got, want)
				}
			}
		}
		spec := rng.New(uint64(k))
		r := *spec
		for i := range 4096 {
			want := spec.Bernoulli(p)
			if got := marks(r.Uint64(), k) == 1; got != want || r != *spec {
				t.Fatalf("k=%d, draw %d: marks %v, Bernoulli %v; streams equal after: %v", k, i, got, want, r == *spec)
			}
		}
		if edge := uint64(1) << (64 - k); marks(edge-1, k) != 1 || marks(edge, k) != 0 {
			t.Fatalf("k=%d: marks gives %d below 2^%d and %d at it, want 1 and 0", k, marks(edge-1, k), 64-k, marks(edge, k))
		}
	}
}

// Graph families of FuzzRunShatterMatchesPerNode.
const (
	famGNP = iota
	famPath
	famStar
	famClique
	famBA
	famTree
	numFamilies
)

// fuzzGraph builds an n-node graph of family fam: deg sets GNP's average
// degree (p = deg/n) and BA's attachment count (1 + deg mod 8).
func fuzzGraph(fam byte, n int, deg uint8, seed uint64) *graph.Graph {
	switch fam % numFamilies {
	case famGNP:
		return graph.GNP(n, float64(deg%64)/float64(max(n, 1)), seed)
	case famPath:
		return graph.Path(n)
	case famStar:
		return graph.Star(n)
	case famClique:
		return graph.Complete(n)
	case famBA:
		return graph.BarabasiAlbert(n, 1+int(deg%8), seed)
	default:
		return graph.RandomTree(n, seed)
	}
}

// FuzzRunShatterMatchesPerNode holds RunShatter to the per-node Machines
// on fuzzed graphs (GNP, path, star, clique, BA and random trees of up to
// 300 nodes), 0 to 40 logical rounds and any seed: same set, survivors,
// counters and per-node awake rounds. Its seed corpus is the differential
// tables' inputs in the families it covers, with GNP capped at 300 nodes,
// plus a BA graph and a random tree.
func FuzzRunShatterMatchesPerNode(f *testing.F) {
	for _, c := range []struct {
		fam    byte
		n      uint16
		deg    uint8
		gseed  uint64
		rounds uint8
	}{
		{famGNP, 300, 10, 3, 12},  // TestBatchMatchesLegacy's gnp
		{famClique, 40, 0, 0, 12}, // its clique
		{famPath, 60, 0, 0, 12},   // its path
		{famStar, 50, 0, 0, 12},   // its star
		{famPath, 0, 0, 0, 12},    // its empty graph
		{famGNP, 300, 12, 7, 0},   // TestRunShatterMatchesLegacy's GNP at 0,
		{famGNP, 300, 12, 7, 1},   // 1
		{famGNP, 300, 12, 7, 9},   // and 9 rounds
		{famGNP, 300, 10, 3, 13},  // shatter's gnp, at the rounds Phase II runs on it
		{famClique, 50, 0, 0, 16}, // shatter's clique, likewise
		{famBA, 300, 2, 2, 25},    // TestShatterProducesIndependentSet's BA
		{famTree, 300, 0, 11, 40}, // the most rounds
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			f.Add(c.fam, c.n, c.deg, c.gseed, c.rounds, seed)
		}
	}
	f.Fuzz(func(t *testing.T, fam byte, n uint16, deg uint8, gseed uint64, rounds uint8, seed uint64) {
		g := fuzzGraph(fam, int(n%301), deg, gseed)
		matchesPerNode(t, g, int(rounds%41), seed)
	})
}
