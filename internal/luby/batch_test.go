package luby

import (
	"fmt"
	"testing"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/sim"
)

// Machine is the per-node specification of Luby's algorithm, the
// reference Batch is held to. After the run, InMIS reports the node's
// output.
type Machine struct {
	env *sim.Env

	InMIS   bool
	decided bool

	activeDeg   int
	marked      bool
	justDecided bool
	removedSent bool
}

var _ sim.Machine = (*Machine)(nil)

// Init implements sim.Machine.
func (m *Machine) Init(env *sim.Env) int {
	m.env = env
	m.activeDeg = env.Degree
	return 0
}

// Compose implements sim.Machine. Engine round 3r+s is sub-round s of
// logical round r.
func (m *Machine) Compose(round int, out *sim.Outbox) {
	switch round % 3 {
	case 0: // marking sub-round
		if m.decided {
			return
		}
		p := 1.0
		if m.activeDeg > 0 {
			p = 1 / (2 * float64(m.activeDeg))
		}
		m.marked = m.env.Rand.Bernoulli(p)
		if m.marked {
			out.Broadcast(sim.Msg{
				Kind: kindMark,
				A:    uint64(m.activeDeg),
				Bits: int32(bitsFor(m.env.N)),
			})
		}
	case 1: // join sub-round
		if m.marked && !m.decided {
			out.Broadcast(sim.Msg{Kind: kindJoin, Bits: 1})
		}
	case 2: // removal notification sub-round
		if m.justDecided && !m.removedSent {
			out.Broadcast(sim.Msg{Kind: kindRemoved, Bits: 1})
			m.removedSent = true
		}
	}
}

// Deliver implements sim.Machine.
func (m *Machine) Deliver(round int, inbox []sim.Msg) int {
	switch round % 3 {
	case 0:
		// Unmark if a marked neighbor beats us: higher remaining degree,
		// ties broken toward the higher ID ("remove the marking of the
		// endpoint with the lower degree, breaking ties arbitrarily").
		if m.marked {
			for _, msg := range inbox {
				if msg.Kind != kindMark {
					continue
				}
				d := int(msg.A)
				if d > m.activeDeg || (d == m.activeDeg && msg.From > int32(m.env.Node)) {
					m.marked = false
					break
				}
			}
		}
		return round + 1
	case 1:
		if !m.decided {
			if m.marked {
				// No conflicting marked neighbor remained: join.
				m.InMIS = true
				m.decided = true
				m.justDecided = true
			}
			for _, msg := range inbox {
				if msg.Kind == kindJoin && !m.InMIS {
					m.decided = true
					m.justDecided = true
				}
			}
		}
		m.marked = false
		return round + 1
	default:
		for _, msg := range inbox {
			if msg.Kind == kindRemoved {
				m.activeDeg--
			}
		}
		if m.decided {
			return sim.Never
		}
		return round + 1
	}
}

// runLegacy executes the per-node Machine implementation through sim.Run:
// the reference the batch automaton is differentially tested against.
func runLegacy(g *graph.Graph, cfg sim.Config) ([]bool, *sim.Result, error) {
	machines := make([]sim.Machine, g.N())
	nodes := make([]Machine, g.N())
	for v := range machines {
		machines[v] = &nodes[v]
	}
	res, err := sim.Run(g, machines, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("luby: %w", err)
	}
	inSet := make([]bool, g.N())
	for v := range nodes {
		inSet[v] = nodes[v].InMIS
	}
	return inSet, res, nil
}

// TestBatchMatchesLegacy is the differential gate of the batch port: for
// every graph shape and seed, the struct-of-arrays batch
// automaton must produce byte-identical output and identical complexity
// counters to the per-node reference implementation. The two GNP graphs
// at seed 9 are the root package's determinism inputs.
func TestBatchMatchesLegacy(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	cases := []struct {
		name  string
		g     *graph.Graph
		seeds []uint64
	}{
		{"gnp", graph.GNP(600, 10.0/600, 3), seeds},
		{"rgg", graph.RGG(400, 8, 5), seeds},
		{"star", graph.Star(80), seeds},
		{"clique", graph.Complete(60), seeds},
		{"path", graph.Path(50), seeds},
		{"isolated", graph.FromEdges(10, [][2]int{{0, 1}}), seeds}, // 8 degree-0 nodes
		{"empty", graph.FromEdges(0, nil), seeds},
		{"gnp-300", graph.GNP(300, 10.0/300, 317), []uint64{9}},
		{"gnp-1000", graph.GNP(1000, 10.0/1000, 1017), []uint64{9}},
	}
	for _, tc := range cases {
		for _, seed := range tc.seeds {
			refSet, refRes, err := runLegacy(tc.g, sim.Config{Seed: seed})
			if err != nil {
				t.Fatalf("%s seed=%d legacy: %v", tc.name, seed, err)
			}
			set, res, err := Run(tc.g, sim.Config{Seed: seed})
			if err != nil {
				t.Fatalf("%s seed=%d batch: %v", tc.name, seed, err)
			}
			for v := range refSet {
				if set[v] != refSet[v] {
					t.Fatalf("%s seed=%d: InSet[%d] = %v, legacy %v",
						tc.name, seed, v, set[v], refSet[v])
				}
			}
			if res.Rounds != refRes.Rounds || res.MsgsSent != refRes.MsgsSent ||
				res.MsgsDropped != refRes.MsgsDropped || res.BitsTotal != refRes.BitsTotal ||
				res.BitsMax != refRes.BitsMax || res.Violations != refRes.Violations {
				t.Fatalf("%s seed=%d: counters differ\n legacy: %+v\n batch:  %+v",
					tc.name, seed, refRes, res)
			}
			for v := range res.Awake {
				if res.Awake[v] != refRes.Awake[v] {
					t.Fatalf("%s seed=%d: Awake[%d] = %d, legacy %d",
						tc.name, seed, v, res.Awake[v], refRes.Awake[v])
				}
			}
		}
	}
}

// TestBatchMemReuse runs many simulations through one pooled Mem and checks
// each run still matches a fresh-buffer run (the engine's buffers must not
// leak awake or schedule state across runs of different sizes).
func TestBatchMemReuse(t *testing.T) {
	mem := sim.NewMem()
	graphs := []*graph.Graph{
		graph.GNP(300, 8.0/300, 1),
		graph.GNP(120, 0.1, 2), // smaller: buffers shrink logically, not physically
		graph.Complete(40),
		graph.GNP(300, 8.0/300, 9),
	}
	for i, g := range graphs {
		for seed := uint64(1); seed <= 4; seed++ {
			fresh, fres, err := Run(g, sim.Config{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			pooled, pres, err := Run(g, sim.Config{Seed: seed, Mem: mem})
			if err != nil {
				t.Fatal(err)
			}
			for v := range fresh {
				if fresh[v] != pooled[v] {
					t.Fatalf("graph %d seed %d: pooled InSet[%d] differs", i, seed, v)
				}
			}
			if fres.Rounds != pres.Rounds || fres.MsgsSent != pres.MsgsSent ||
				fres.MsgsDropped != pres.MsgsDropped || fres.BitsTotal != pres.BitsTotal {
				t.Fatalf("graph %d seed %d: pooled counters differ\n fresh:  %+v\n pooled: %+v",
					i, seed, fres, pres)
			}
		}
	}
}

func benchLuby(b *testing.B, n int, batch bool) {
	g := graph.GNP(n, 10.0/float64(n), uint64(n))
	var awake int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var res *sim.Result
		var err error
		if batch {
			_, res, err = Run(g, sim.Config{Seed: 1})
		} else {
			_, res, err = runLegacy(g, sim.Config{Seed: 1})
		}
		if err != nil {
			b.Fatal(err)
		}
		awake = 0
		for _, a := range res.Awake {
			awake += int64(a)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(awake), "ns/awake-node-round")
}

func BenchmarkLubyLegacyGNP4096(b *testing.B)  { benchLuby(b, 4096, false) }
func BenchmarkLubyBatchGNP4096(b *testing.B)   { benchLuby(b, 4096, true) }
func BenchmarkLubyLegacyGNP16384(b *testing.B) { benchLuby(b, 16384, false) }
func BenchmarkLubyBatchGNP16384(b *testing.B)  { benchLuby(b, 16384, true) }
