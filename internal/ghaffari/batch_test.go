package ghaffari

import (
	"testing"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/sim"
)

// runLegacyK executes K packed executions with the per-node Machine
// through sim.Run and extracts the per-execution decisions.
func runLegacyK(t *testing.T, g *graph.Graph, k, rounds int, cfg sim.Config) ([]*Proto, *sim.Result) {
	t.Helper()
	machines := make([]sim.Machine, g.N())
	nodes := make([]*Machine, g.N())
	for v := range machines {
		nodes[v] = NewMachine(k, rounds)
		machines[v] = nodes[v]
	}
	res, err := sim.Run(g, machines, cfg)
	if err != nil {
		t.Fatalf("legacy run: %v", err)
	}
	protos := make([]*Proto, g.N())
	for v, nm := range nodes {
		protos[v] = nm.Proto()
	}
	return protos, res
}

func sameCounters(t *testing.T, ctx string, ref, got *sim.Result) {
	t.Helper()
	if got.Rounds != ref.Rounds || got.MsgsSent != ref.MsgsSent ||
		got.MsgsDropped != ref.MsgsDropped || got.BitsTotal != ref.BitsTotal ||
		got.BitsMax != ref.BitsMax || got.Violations != ref.Violations {
		t.Fatalf("%s: counters differ\n legacy: %+v\n batch:  %+v", ctx, ref, got)
	}
	for v := range got.Awake {
		if got.Awake[v] != ref.Awake[v] {
			t.Fatalf("%s: Awake[%d] = %d, legacy %d", ctx, v, got.Awake[v], ref.Awake[v])
		}
	}
}

// TestBatchMatchesLegacy is the differential gate of the batch port: for
// every graph shape, K, and seed, the struct-of-arrays batch
// automaton must produce byte-identical per-execution decisions and
// identical complexity counters to the per-node reference.
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
		for _, k := range []int{1, 5, 64, 100} {
			rounds := 12
			for seed := uint64(1); seed <= 2; seed++ {
				refProtos, refRes := runLegacyK(t, tc.g, k, rounds, sim.Config{Seed: seed})
				b := NewBatch(tc.g, k, rounds)
				res, err := sim.RunBatch(tc.g, b, sim.Config{Seed: seed})
				if err != nil {
					t.Fatalf("%s k=%d seed=%d: %v", tc.name, k, seed, err)
				}
				ctx := tc.name
				sameCounters(t, ctx, refRes, res)
				for e := 0; e < k; e++ {
					in := b.InMISExec(e)
					und := map[int]bool{}
					for _, v := range b.UndecidedExec(e) {
						und[v] = true
					}
					for v := 0; v < tc.g.N(); v++ {
						if in[v] != refProtos[v].InMIS[e] {
							t.Fatalf("%s k=%d seed=%d: InMIS[%d][exec %d] = %v, legacy %v",
								tc.name, k, seed, v, e, in[v], refProtos[v].InMIS[e])
						}
						if und[v] != refProtos[v].Undecided(e) {
							t.Fatalf("%s k=%d seed=%d: Undecided[%d][exec %d] = %v, legacy %v",
								tc.name, k, seed, v, e, und[v], refProtos[v].Undecided(e))
						}
					}
				}
			}
		}
	}
}

// TestRunShatterMatchesLegacy checks the shattering entry point end to end:
// same set, same survivors, same counters.
func TestRunShatterMatchesLegacy(t *testing.T) {
	g := graph.GNP(500, 12.0/500, 7)
	for _, rounds := range []int{0, 1, 9} {
		for seed := uint64(1); seed <= 3; seed++ {
			refSet, refSurv, refRes, err := RunShatterLegacy(g, rounds, sim.Config{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			set, surv, res, err := RunShatter(g, rounds, sim.Config{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			for v := range refSet {
				if set[v] != refSet[v] {
					t.Fatalf("rounds=%d seed=%d: InSet[%d] differs", rounds, seed, v)
				}
			}
			if len(surv) != len(refSurv) {
				t.Fatalf("rounds=%d seed=%d: %d survivors, legacy %d",
					rounds, seed, len(surv), len(refSurv))
			}
			for i := range surv {
				if surv[i] != refSurv[i] {
					t.Fatalf("rounds=%d seed=%d: survivor[%d] = %d, legacy %d",
						rounds, seed, i, surv[i], refSurv[i])
				}
			}
			sameCounters(t, "shatter", refRes, res)
		}
	}
}
