package phase3

import (
	"testing"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/sim"
)

// TestBatchMatchesLegacy is the differential gate of the batch driver: Run
// (the flat value-array Batch on the batch runtime) must produce
// byte-identical Outcomes and complexity counters to RunLegacy (per-node
// machines on the per-node engine), for every graph shape — including
// multi-component shattered residuals, the phase's real input — and
// seed.
func TestBatchMatchesLegacy(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"components", graph.GNP(220, 2.0/220, 3)}, // sparse: many small components
		{"path", graph.Path(70)},
		{"clique", graph.Complete(30)},
		{"cliquechain", graph.CliqueChain(8, 6)},
		{"isolated", graph.FromEdges(12, [][2]int{{0, 1}, {2, 3}})},
		{"empty", graph.FromEdges(0, nil)},
	}
	for _, mode := range []Mode{ModeAlg1, ModeAlg2} {
		p := DefaultParams(mode)
		for _, tc := range cases {
			for seed := uint64(1); seed <= 2; seed++ {
				ref, err := RunLegacy(tc.g, p, sim.Config{Seed: seed})
				if err != nil {
					t.Fatalf("%s mode=%v seed=%d legacy: %v", tc.name, mode, seed, err)
				}
				got, err := Run(tc.g, p, sim.Config{Seed: seed})
				if err != nil {
					t.Fatalf("%s mode=%v seed=%d batch: %v", tc.name, mode, seed, err)
				}
				for v := range ref.InSet {
					if got.InSet[v] != ref.InSet[v] {
						t.Fatalf("%s mode=%v seed=%d: InSet[%d] differs",
							tc.name, mode, seed, v)
					}
				}
				if len(got.Undecided) != len(ref.Undecided) || got.MaxDepth != ref.MaxDepth ||
					got.MaxAttempts != ref.MaxAttempts || got.BrokenNodes != ref.BrokenNodes ||
					got.Components != ref.Components || got.MaxComponent != ref.MaxComponent {
					t.Fatalf("%s mode=%v seed=%d: outcome differs\n legacy: %+v\n batch:  %+v",
						tc.name, mode, seed, summary(ref), summary(got))
				}
				for i := range got.Undecided {
					if got.Undecided[i] != ref.Undecided[i] {
						t.Fatalf("%s mode=%v seed=%d: undecided[%d] differs",
							tc.name, mode, seed, i)
					}
				}
				r, gr := ref.Res, got.Res
				if gr.Rounds != r.Rounds || gr.MsgsSent != r.MsgsSent ||
					gr.MsgsDropped != r.MsgsDropped || gr.BitsTotal != r.BitsTotal ||
					gr.BitsMax != r.BitsMax || gr.Violations != r.Violations {
					t.Fatalf("%s mode=%v seed=%d: counters differ\n legacy: %+v\n batch:  %+v",
						tc.name, mode, seed, r, gr)
				}
				for v := range gr.Awake {
					if gr.Awake[v] != r.Awake[v] {
						t.Fatalf("%s mode=%v seed=%d: Awake[%d] = %d, legacy %d",
							tc.name, mode, seed, v, gr.Awake[v], r.Awake[v])
					}
				}
			}
		}
	}
}

func summary(o *Outcome) map[string]int {
	return map[string]int{
		"undecided": len(o.Undecided), "maxDepth": o.MaxDepth, "attempts": o.MaxAttempts,
		"broken": o.BrokenNodes, "components": o.Components, "maxComponent": o.MaxComponent,
	}
}
