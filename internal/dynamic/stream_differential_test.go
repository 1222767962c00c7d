package dynamic_test

// Batch-vs-legacy equality over the benchmark stream shapes. This lives in
// an external test package because internal/stream imports
// internal/dynamic. The churn and hub workloads run on clustered graphs
// (RGG, Barabási–Albert) where uncovered regions reliably split into
// multi-node components, so the partition, the per-component seeds, and
// the ordered merge all carry real work.

import (
	"reflect"
	"testing"

	"github.com/energymis/energymis/internal/dynamic"
	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/stream"
	"github.com/energymis/energymis/internal/verify"
)

// TestBatchVsLegacyAcrossStreams drives the batch and legacy repair
// paths through the three benchmark stream shapes (RGG churn, sliding
// window, BA hub attack) and requires byte-identical per-batch BatchStats,
// final sets, awake ledgers, and lifetime Stats. SelfCheck validates the
// MIS after every batch on both paths.
func TestBatchVsLegacyAcrossStreams(t *testing.T) {
	cases := []struct {
		name  string
		g     *graph.Graph
		trace [][]dynamic.Update
	}{
		{
			name: "churn",
			g:    graph.RGG(400, 12, 7),
		},
		{
			name: "window",
			g:    graph.GNP(300, 0, 7), // edgeless universe; the stream adds edges
		},
		{
			name: "hub",
			g:    graph.BarabasiAlbert(300, 4, 7),
		},
	}
	cases[0].trace = stream.UniformChurn(cases[0].g, 50, 16, 17)
	cases[1].trace = stream.SlidingWindow(300, 40, 120, 17)
	cases[2].trace = stream.HubAttack(cases[2].g, 30, 17)

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			type runOut struct {
				perBatch []dynamic.BatchStats
				inSet    []bool
				awake    []int64
				stats    dynamic.Stats
			}
			run := func(legacy bool) runOut {
				e, err := dynamic.New(tc.g, verify.GreedyMIS(tc.g),
					dynamic.Params{Seed: 23, Legacy: legacy, SelfCheck: true})
				if err != nil {
					t.Fatal(err)
				}
				var out runOut
				for i, batch := range tc.trace {
					bs, err := e.Apply(batch)
					if err != nil {
						t.Fatalf("legacy=%v batch %d: %v", legacy, i, err)
					}
					out.perBatch = append(out.perBatch, bs)
				}
				out.inSet = e.InSet()
				out.awake = e.AwakePerNode()
				out.stats = e.Stats()
				return out
			}
			batch := run(false)
			if tc.name != "window" && batch.stats.MaxComponents < 2 {
				t.Fatalf("workload never split a region into components (max %d); "+
					"the partition and merge are not exercised", batch.stats.MaxComponents)
			}
			legacy := run(true)
			if !reflect.DeepEqual(legacy.perBatch, batch.perBatch) {
				for i := range batch.perBatch {
					if legacy.perBatch[i] != batch.perBatch[i] {
						t.Fatalf("batch %d diverges:\n batch:  %+v\n legacy: %+v",
							i, batch.perBatch[i], legacy.perBatch[i])
					}
				}
			}
			if !reflect.DeepEqual(legacy.inSet, batch.inSet) {
				t.Error("final set differs between batch and legacy paths")
			}
			if !reflect.DeepEqual(legacy.awake, batch.awake) {
				t.Error("per-node awake ledger differs between batch and legacy paths")
			}
			if legacy.stats != batch.stats {
				t.Errorf("Stats differ:\n batch:  %+v\n legacy: %+v", batch.stats, legacy.stats)
			}
		})
	}
}
