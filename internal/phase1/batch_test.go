package phase1

import (
	"fmt"
	"testing"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/sim"
	"github.com/energymis/energymis/internal/verify"
)

// runWithPlanLegacy executes the phase with the per-node Machine through
// sim.Run: the reference the batch automaton is differentially tested
// against.
func runWithPlanLegacy(g *graph.Graph, plan Plan, p Params, cfg sim.Config) (*Outcome, error) {
	machines, nodes := NewMachines(g, plan, p)
	res, err := sim.Run(g, machines, cfg)
	if err != nil {
		return nil, fmt.Errorf("phase1: %w", err)
	}
	out := &Outcome{InSet: make([]bool, g.N()), Plan: plan, Res: res}
	for v, nm := range nodes {
		out.InSet[v] = nm.InMIS
		if nm.Sampled() {
			out.Sampled++
		}
		if nm.Spoiled() {
			out.Spoiled++
		}
	}
	out.Residual = verify.Residual(g, out.InSet)
	return out, nil
}

// TestBatchMatchesLegacy differentially tests the struct-of-arrays batch
// automaton against the per-node reference: identical marking rounds, wake
// schedules, outputs, and engine counters for every graph and seed.
func TestBatchMatchesLegacy(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp-dense", graph.GNP(800, 0.1, 3)},
		{"ba-hubs", graph.BarabasiAlbert(1000, 20, 5)},
		{"clique", graph.Complete(200)},
		{"sparse", graph.GNP(500, 3.0/500, 7)}, // low Δ: plan may have 0 iterations
		{"edgeless", graph.FromEdges(50, nil)}, // MaxDegree 0: phase is skipped
	}
	p := DefaultParams()
	for _, tc := range cases {
		plan := MakePlan(tc.g.N(), tc.g.MaxDegree(), p)
		for seed := uint64(1); seed <= 3; seed++ {
			ref, err := runWithPlanLegacy(tc.g, plan, p, sim.Config{Seed: seed})
			if err != nil {
				t.Fatalf("%s seed=%d legacy: %v", tc.name, seed, err)
			}
			out, err := RunWithPlan(tc.g, plan, p, sim.Config{Seed: seed})
			if err != nil {
				t.Fatalf("%s seed=%d batch: %v", tc.name, seed, err)
			}
			for v := range ref.InSet {
				if out.InSet[v] != ref.InSet[v] {
					t.Fatalf("%s seed=%d: InSet[%d] = %v, legacy %v",
						tc.name, seed, v, out.InSet[v], ref.InSet[v])
				}
			}
			if out.Sampled != ref.Sampled || out.Spoiled != ref.Spoiled {
				t.Fatalf("%s seed=%d: sampled/spoiled %d/%d, legacy %d/%d",
					tc.name, seed, out.Sampled, out.Spoiled, ref.Sampled, ref.Spoiled)
			}
			if len(out.Residual) != len(ref.Residual) {
				t.Fatalf("%s seed=%d: residual size %d, legacy %d",
					tc.name, seed, len(out.Residual), len(ref.Residual))
			}
			r, rr := out.Res, ref.Res
			if r.Rounds != rr.Rounds || r.MsgsSent != rr.MsgsSent ||
				r.MsgsDropped != rr.MsgsDropped || r.BitsTotal != rr.BitsTotal ||
				r.BitsMax != rr.BitsMax || r.Violations != rr.Violations {
				t.Fatalf("%s seed=%d: counters differ\n legacy: %+v\n batch:  %+v",
					tc.name, seed, rr, r)
			}
			for v := range r.Awake {
				if r.Awake[v] != rr.Awake[v] {
					t.Fatalf("%s seed=%d: Awake[%d] = %d, legacy %d",
						tc.name, seed, v, r.Awake[v], rr.Awake[v])
				}
			}
		}
	}
}
