package bench

import (
	"fmt"
	"sync"

	energymis "github.com/energymis/energymis"
)

// The named suites. Quick mode (the CI perf gate) runs the subset of each
// suite flagged Quick — the *same cases with the same sizes and seeds* as
// the full run, so quick reports compare cleanly against a full baseline.
const (
	SuiteStatic        = "static"             // static MIS runs: graph families × sizes × algorithms
	SuiteDynamic       = "dynamic"            // churn workloads through the dynamic repair engine
	SuiteThroughput    = "throughput"         // M independent runs across a worker pool (runs/sec)
	SuiteDynThroughput = "dynamic-throughput" // sustained update streams through ApplyBatch (updates/sec)
)

// SuiteNames lists every suite in canonical order.
func SuiteNames() []string {
	return []string{SuiteStatic, SuiteDynamic, SuiteThroughput, SuiteDynThroughput}
}

// The benchmark topologies, each defined exactly once so every suite that
// names the same (family, n) measures the same instance via the shared
// graph cache.

func gnpGraph(n int) func() *energymis.Graph {
	return cachedGraph(fmt.Sprintf("gnp/n=%d/avgdeg=10/seed=%d", n, n),
		func() *energymis.Graph { return energymis.GNP(n, 10.0/float64(n), uint64(n)) })
}

func rggGraph(n int) func() *energymis.Graph {
	return cachedGraph(fmt.Sprintf("rgg/n=%d/avgdeg=10/seed=%d", n, n),
		func() *energymis.Graph { return energymis.RGG(n, 10.0, uint64(n)) })
}

// udgGraph uses a fixed 0.025 communication radius: degree grows with
// density (≈8 at n=4096, ≈32 at n=16384) — the sensor-field scenario.
func udgGraph(n int) func() *energymis.Graph {
	return cachedGraph(fmt.Sprintf("udg/n=%d/r=0.025/seed=%d", n, n),
		func() *energymis.Graph { return energymis.RandomGeometric(n, 0.025, uint64(n)) })
}

func baGraph(n int) func() *energymis.Graph {
	return cachedGraph(fmt.Sprintf("ba/n=%d/m=5/seed=%d", n, n),
		func() *energymis.Graph { return energymis.BarabasiAlbert(n, 5, uint64(n)) })
}

// FromResult converts a static run's Result into harness metrics. It is
// shared with the `go test -bench` benchmarks, which report the same
// quantities through testing.B.
func FromResult(res *energymis.Result) Metrics {
	return Metrics{
		Rounds:          int64(res.Rounds),
		AwakeMax:        int64(res.MaxAwake),
		AwakeAvg:        res.AvgAwake,
		AwakeTotal:      res.AwakeTotal,
		Messages:        res.Messages,
		MessagesDropped: res.MessagesDropped,
		BitsTotal:       res.BitsTotal,
		BitsMax:         int64(res.BitsMax),
		MISSize:         int64(res.MISSize()),
	}
}

// FromDynamicStats converts a dynamic engine lifetime into harness
// metrics; the awake totals include the bootstrap (wall time does too)
// and awakePerNode (DynamicMIS.AwakePerNode) yields the max/avg energy.
func FromDynamicStats(st energymis.DynamicStats, misSize int, awakePerNode []int64) Metrics {
	var awakeMax int64
	for _, a := range awakePerNode {
		if a > awakeMax {
			awakeMax = a
		}
	}
	var awakeAvg float64
	if len(awakePerNode) > 0 {
		awakeAvg = float64(st.AwakeTotal+st.BootstrapAwake) / float64(len(awakePerNode))
	}
	return Metrics{
		Rounds:     st.Rounds + int64(st.BootstrapRounds),
		AwakeMax:   awakeMax,
		AwakeAvg:   awakeAvg,
		AwakeTotal: st.AwakeTotal + st.BootstrapAwake,
		Messages:   st.Messages + st.BootstrapMessages,
		MISSize:    int64(misSize),
		Extra: map[string]float64{
			"updates":      float64(st.Updates),
			"woken_total":  float64(st.WokenTotal),
			"max_region":   float64(st.MaxRegion),
			"evictions":    float64(st.Evictions),
			"awake_update": float64(st.AwakeTotal) / float64(max64(st.Updates, 1)),
		},
	}
}

func staticSpec(family string, g func() *energymis.Graph, n int, algo energymis.Algorithm, quick bool) Spec {
	// One pooled Mem per case: the warm-up run allocates the engine
	// buffers once, every timed repetition then executes the whole batch
	// pipeline — all phases — against the warm pool (case runs are
	// sequential, so the Mem is never shared concurrently). Simulated work
	// and all deterministic counters are unaffected (see
	// pipeline.TestSharedMemIdentical).
	mem := energymis.NewMem()
	return Spec{
		Suite: SuiteStatic,
		Name:  fmt.Sprintf("%s/n=%d/%s", family, n, algo),
		Quick: quick,
		Run: func() (Metrics, error) {
			res, err := energymis.Run(g(), algo, energymis.Options{Seed: 1, Mem: mem})
			if err != nil {
				return Metrics{}, err
			}
			return FromResult(res), nil
		},
	}
}

func dynamicSpec(name string, quick bool, setup func() (*energymis.Graph, [][]energymis.Update, energymis.DynamicOptions)) Spec {
	var once sync.Once
	var g *energymis.Graph
	var trace [][]energymis.Update
	var opts energymis.DynamicOptions
	return Spec{
		Suite: SuiteDynamic,
		Name:  name,
		Quick: quick,
		Run: func() (Metrics, error) {
			once.Do(func() { g, trace, opts = setup() })
			d, err := energymis.NewDynamic(g, energymis.Luby, opts)
			if err != nil {
				return Metrics{}, err
			}
			for _, batch := range trace {
				if _, err := d.Apply(batch); err != nil {
					return Metrics{}, err
				}
			}
			return FromDynamicStats(d.Stats(), d.MISSize(), d.AwakePerNode()), nil
		},
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Specs returns the runnable case definitions of the requested suites (nil
// or empty = all), restricted to the Quick subset when quick is set.
func Specs(suites []string, quick bool) ([]Spec, error) {
	want := map[string]bool{}
	if len(suites) == 0 {
		suites = SuiteNames()
	}
	known := map[string]bool{SuiteStatic: true, SuiteDynamic: true, SuiteThroughput: true, SuiteDynThroughput: true}
	for _, s := range suites {
		if !known[s] {
			return nil, fmt.Errorf("bench: unknown suite %q (have %v)", s, SuiteNames())
		}
		want[s] = true
	}

	var specs []Spec

	// --- static: graph families × sizes × algorithms ---
	families := []struct {
		name string
		gen  func(n int) func() *energymis.Graph
	}{
		{"gnp", gnpGraph},
		{"rgg", rggGraph},
		{"udg", udgGraph},
		{"ba", baGraph},
	}
	for _, fam := range families {
		for _, n := range []int{4096, 16384} {
			g := fam.gen(n)
			for _, algo := range []energymis.Algorithm{energymis.Luby, energymis.Algorithm1} {
				// Quick subset: the gnp family at both sizes (same keys as
				// the full run, so -quick -compare matches the baseline).
				q := fam.name == "gnp"
				specs = append(specs, staticSpec(fam.name, g, n, algo, q))
			}
		}
	}

	// --- dynamic: churn workloads through the repair engine ---
	dyn := []Spec{
		dynamicSpec("churn/n=2000/repair=luby", true, func() (*energymis.Graph, [][]energymis.Update, energymis.DynamicOptions) {
			g := energymis.GNP(2000, 8.0/2000, 2000)
			return g, energymis.ChurnStream(g, 150, 1, 7), energymis.DynamicOptions{Seed: 1, Repair: energymis.RepairLuby}
		}),
		dynamicSpec("churn/n=2000/repair=ghaffari", false, func() (*energymis.Graph, [][]energymis.Update, energymis.DynamicOptions) {
			g := energymis.GNP(2000, 8.0/2000, 2000)
			return g, energymis.ChurnStream(g, 150, 1, 7), energymis.DynamicOptions{Seed: 1, Repair: energymis.RepairGhaffari}
		}),
		dynamicSpec("hub-attack/n=2000", false, func() (*energymis.Graph, [][]energymis.Update, energymis.DynamicOptions) {
			g := energymis.BarabasiAlbert(2000, 4, 3)
			return g, energymis.HubAttackStream(g, 60, 5), energymis.DynamicOptions{Seed: 1}
		}),
	}

	specs = append(specs, dyn...)

	// --- throughput: many independent runs over the worker-pool executor ---
	specs = append(specs,
		throughputSpec("luby/gnp/n=4096/runs=32", true, gnpGraph(4096), energymis.Luby, 32),
		throughputSpec("algorithm1/gnp/n=4096/runs=8", true, gnpGraph(4096), energymis.Algorithm1, 8),
		throughputSpec("luby/gnp/n=16384/runs=8", false, gnpGraph(16384), energymis.Luby, 8),
		throughputSpec("luby/udg/n=4096/runs=16", false, udgGraph(4096), energymis.Luby, 16),
	)

	// --- dynamic-throughput: sustained update streams through ApplyBatch ---
	specs = append(specs, dynThroughputSpecs()...)

	var out []Spec
	for _, s := range specs {
		if want[s.Suite] && (!quick || s.Quick) {
			out = append(out, s)
		}
	}
	return out, nil
}
