package bench

import (
	"fmt"
	"sync"

	energymis "github.com/energymis/energymis"
)

// The dynamic-throughput suite makes the unit of traffic an update, not a
// run: each case replays a precomputed churn stream through
// DynamicMIS.ApplyBatch and reports sustained updates/sec and
// allocs/update into BENCH_MIS.json, where both are gated (see
// compare.go). The engine is seeded with GreedyMIS instead of a bootstrap
// run, so the measurement is repair throughput, not static-algorithm
// time; stream generation and graph construction are cached outside the
// timed region.

// gnpDeg8Graph is the churn topology: sparse GNP with average degree 8.
func gnpDeg8Graph(n int) func() *energymis.Graph {
	return cachedGraph(fmt.Sprintf("gnp/n=%d/avgdeg=8/seed=%d", n, n),
		func() *energymis.Graph { return energymis.GNP(n, 8.0/float64(n), uint64(n)) })
}

// dynThroughputSpec measures one (graph, stream, options) workload. setup
// runs once, outside the timed reps; every rep wraps a fresh engine
// around the cached initial set and replays the whole flattened stream
// through the coalescing window.
func dynThroughputSpec(name string, quick bool, setup func() (*energymis.Graph, []energymis.Update, energymis.DynamicOptions)) Spec {
	var once sync.Once
	var g *energymis.Graph
	var inSet []bool
	var flat []energymis.Update
	var opts energymis.DynamicOptions
	return Spec{
		Suite: SuiteDynThroughput,
		Name:  name,
		Quick: quick,
		Run: func() (Metrics, error) {
			once.Do(func() {
				g, flat, opts = setup()
				inSet = energymis.GreedyMIS(g)
			})
			d, err := energymis.NewDynamicFrom(g, inSet, opts)
			if err != nil {
				return Metrics{}, err
			}
			if _, err := d.ApplyBatch(flat); err != nil {
				return Metrics{}, err
			}
			m := FromDynamicStats(d.Stats(), d.MISSize(), d.AwakePerNode())
			m.Extra["window"] = float64(opts.Window)
			return m, nil
		},
	}
}

// churnWorkload is the setup of the uniform-churn cases: sparse GNP, a
// fixed churn stream, and the given coalescing window.
func churnWorkload(n, updates, window int) func() (*energymis.Graph, []energymis.Update, energymis.DynamicOptions) {
	return func() (*energymis.Graph, []energymis.Update, energymis.DynamicOptions) {
		g := gnpDeg8Graph(n)()
		flat := energymis.FlattenStream(energymis.ChurnStream(g, updates, 1, 7))
		return g, flat, energymis.DynamicOptions{Seed: 1, Window: window}
	}
}

func dynThroughputSpecs() []Spec {
	return []Spec{
		// The headline case: uniform churn at window 64.
		dynThroughputSpec("churn/n=100000/w=64", true, churnWorkload(100000, 51200, 64)),
		// Window ablation endpoints: no coalescing, and the large-graph
		// target (n=10⁶ at a wide window).
		dynThroughputSpec("churn/n=100000/w=1", false, churnWorkload(100000, 51200, 1)),
		dynThroughputSpec("churn/n=1000000/w=256", false, churnWorkload(1000000, 131072, 256)),
		// Other stream classes: sliding-window arrivals and the
		// adversarial hub attack.
		dynThroughputSpec("window/n=50000/w=64", false, func() (*energymis.Graph, []energymis.Update, energymis.DynamicOptions) {
			g := gnpDeg8Graph(50000)()
			flat := energymis.FlattenStream(energymis.WindowStream(50000, 500, 25600, 11))
			return g, flat, energymis.DynamicOptions{Seed: 1, Window: 64}
		}),
		dynThroughputSpec("hub/n=20000/w=16", false, func() (*energymis.Graph, []energymis.Update, energymis.DynamicOptions) {
			g := cachedGraph("ba/n=20000/m=4/seed=3",
				func() *energymis.Graph { return energymis.BarabasiAlbert(20000, 4, 3) })()
			flat := energymis.FlattenStream(energymis.HubAttackStream(g, 400, 5))
			return g, flat, energymis.DynamicOptions{Seed: 1, Window: 16}
		}),
	}
}
