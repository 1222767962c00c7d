package degreduce

import (
	"testing"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/sim"
)

// runIterLegacy executes one iteration with per-node machines through
// sim.Run.
func runIterLegacy(cur *graph.Graph, plan Plan, p Params, cfg sim.Config) (iterOut, error) {
	machines := make([]sim.Machine, cur.N())
	nodes := make([]*Machine, cur.N())
	for v := range machines {
		nodes[v] = &Machine{
			plan: plan,
			damp: p.ResampleDamp,
			pmd:  p.PreMarkDamp,
			pexp: p.PreMarkExp,
			rv:   -1,
		}
		machines[v] = nodes[v]
	}
	res, err := sim.Run(cur, machines, cfg)
	if err != nil {
		return iterOut{}, err
	}
	it := iterOut{inSet: make([]bool, cur.N()), res: res}
	for v, nm := range nodes {
		it.inSet[v] = nm.InMIS
		if nm.Sampled() {
			it.sampled++
		}
	}
	return it, nil
}

// runLegacy executes the reduction with per-node machines through
// sim.Run: the reference the batch path is differentially tested against.
func runLegacy(g *graph.Graph, p Params, cfg sim.Config) (*Outcome, error) {
	return runLoop(g, p, cfg, runIterLegacy)
}

// TestBatchMatchesLegacy is the differential gate of the batch port: the
// full iterated reduction on the batch runtime must produce byte-identical
// Outcomes — set, residual, per-iteration stats, complexity counters — to
// the per-node reference, for every graph shape and seed.
func TestBatchMatchesLegacy(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", graph.GNP(500, 60.0/500, 3)},
		{"rgg", graph.RGG(300, 40, 5)},
		{"clique", graph.Complete(90)},
		{"star", graph.Star(120)},
		{"isolated", graph.FromEdges(10, [][2]int{{0, 1}})},
		{"empty", graph.FromEdges(0, nil)},
	}
	for _, tc := range cases {
		for seed := uint64(1); seed <= 2; seed++ {
			ref, err := runLegacy(tc.g, DefaultParams(), sim.Config{Seed: seed})
			if err != nil {
				t.Fatalf("%s seed=%d legacy: %v", tc.name, seed, err)
			}
			got, err := Run(tc.g, DefaultParams(), sim.Config{Seed: seed})
			if err != nil {
				t.Fatalf("%s seed=%d batch: %v", tc.name, seed, err)
			}
			for v := range ref.InSet {
				if got.InSet[v] != ref.InSet[v] {
					t.Fatalf("%s seed=%d: InSet[%d] = %v, legacy %v",
						tc.name, seed, v, got.InSet[v], ref.InSet[v])
				}
			}
			if len(got.Residual) != len(ref.Residual) {
				t.Fatalf("%s seed=%d: %d residual nodes, legacy %d",
					tc.name, seed, len(got.Residual), len(ref.Residual))
			}
			for i := range got.Residual {
				if got.Residual[i] != ref.Residual[i] {
					t.Fatalf("%s seed=%d: residual[%d] differs", tc.name, seed, i)
				}
			}
			if len(got.Iters) != len(ref.Iters) || got.BoundExceeded != ref.BoundExceeded {
				t.Fatalf("%s seed=%d: %d iters (exceeded %d), legacy %d (%d)",
					tc.name, seed, len(got.Iters), got.BoundExceeded,
					len(ref.Iters), ref.BoundExceeded)
			}
			for i := range got.Iters {
				gi, ri := got.Iters[i], ref.Iters[i]
				if gi.Delta != ri.Delta || gi.NextDelta != ri.NextDelta ||
					gi.MeasuredD != ri.MeasuredD || gi.Nodes != ri.Nodes || gi.Sampled != ri.Sampled {
					t.Fatalf("%s seed=%d iter %d: stats differ\n legacy: %+v\n batch:  %+v",
						tc.name, seed, i, ri, gi)
				}
				r, gr := ri.Res, gi.Res
				if gr.Rounds != r.Rounds || gr.MsgsSent != r.MsgsSent ||
					gr.MsgsDropped != r.MsgsDropped || gr.BitsTotal != r.BitsTotal ||
					gr.BitsMax != r.BitsMax || gr.Violations != r.Violations {
					t.Fatalf("%s seed=%d iter %d: counters differ\n legacy: %+v\n batch:  %+v",
						tc.name, seed, i, r, gr)
				}
				for v := range gr.Awake {
					if gr.Awake[v] != r.Awake[v] {
						t.Fatalf("%s seed=%d iter %d: Awake[%d] differs",
							tc.name, seed, i, v)
					}
				}
			}
		}
	}
}
