package shatter

import (
	"testing"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/sim"
)

// TestBatchMatchesLegacy is the differential gate of the phase's batch
// path: Run (ghaffari.Batch on the batch runtime) must produce the same
// Outcome — set, survivors, components — and identical complexity counters
// as RunLegacy (per-node machines through sim.Run).
func TestBatchMatchesLegacy(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", graph.GNP(600, 10.0/600, 3)},
		{"rgg", graph.RGG(300, 8, 5)},
		{"clique", graph.Complete(50)},
		{"isolated", graph.FromEdges(10, [][2]int{{0, 1}})},
		{"empty", graph.FromEdges(0, nil)},
	}
	for _, tc := range cases {
		for seed := uint64(1); seed <= 3; seed++ {
			ref, err := RunLegacy(tc.g, DefaultParams(), sim.Config{Seed: seed})
			if err != nil {
				t.Fatalf("%s seed=%d legacy: %v", tc.name, seed, err)
			}
			got, err := Run(tc.g, DefaultParams(), sim.Config{Seed: seed})
			if err != nil {
				t.Fatalf("%s seed=%d batch: %v", tc.name, seed, err)
			}
			for v := range ref.InSet {
				if got.InSet[v] != ref.InSet[v] {
					t.Fatalf("%s seed=%d: InSet[%d] differs", tc.name, seed, v)
				}
			}
			if len(got.Survivors) != len(ref.Survivors) || got.MaxComponent != ref.MaxComponent ||
				len(got.Components) != len(ref.Components) || got.Rounds != ref.Rounds {
				t.Fatalf("%s seed=%d: outcome shape differs\n legacy: %d surv, %d comps (max %d), %d rounds\n batch:  %d surv, %d comps (max %d), %d rounds",
					tc.name, seed,
					len(ref.Survivors), len(ref.Components), ref.MaxComponent, ref.Rounds,
					len(got.Survivors), len(got.Components), got.MaxComponent, got.Rounds)
			}
			for i := range got.Survivors {
				if got.Survivors[i] != ref.Survivors[i] {
					t.Fatalf("%s seed=%d: survivor[%d] differs", tc.name, seed, i)
				}
			}
			r, gr := ref.Res, got.Res
			if gr.Rounds != r.Rounds || gr.MsgsSent != r.MsgsSent || gr.MsgsDropped != r.MsgsDropped ||
				gr.BitsTotal != r.BitsTotal || gr.BitsMax != r.BitsMax || gr.Violations != r.Violations {
				t.Fatalf("%s seed=%d: counters differ\n legacy: %+v\n batch:  %+v",
					tc.name, seed, r, gr)
			}
			for v := range gr.Awake {
				if gr.Awake[v] != r.Awake[v] {
					t.Fatalf("%s seed=%d: Awake[%d] differs", tc.name, seed, v)
				}
			}
		}
	}
}
