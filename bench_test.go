package energymis_test

// Profiling entry points for static runs and for the repair path of the
// repository benchmark's dynamic workloads. The static benchmarks report
// the paper's complexity measures as custom metrics (rounds, awake
// counts) next to wall-clock time; add -cpuprofile, -memprofile or -trace
// to a -bench run (see docs/BENCHMARKING.md). The paper's bounds
// themselves are checked by the package tests that cover each lemma.

import (
	"runtime"
	"testing"

	energymis "github.com/energymis/energymis"
)

func reportRun(b *testing.B, g *energymis.Graph, algo energymis.Algorithm) {
	b.Helper()
	var res *energymis.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = energymis.Run(g, algo, energymis.Options{Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Rounds), "rounds")
	b.ReportMetric(float64(res.MaxAwake), "maxAwake")
	b.ReportMetric(res.AvgAwake, "avgAwake")
	if res.AwakeTotal > 0 && b.N > 0 {
		perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.ReportMetric(perOp/float64(res.AwakeTotal), "ns/awake-node-round")
	}
}

// BenchmarkEngineThroughput measures raw simulator speed: Luby's ns per
// awake node-round on GNP n=50,000.
func BenchmarkEngineThroughput(b *testing.B) {
	g := energymis.GNP(50_000, 10.0/50_000, 3)
	b.Run("luby-50k", func(b *testing.B) {
		reportRun(b, g, energymis.Luby)
	})
}

// BenchmarkPooledStatic runs the graph families, sizes and algorithms of
// the repository benchmark's three static workloads (cmd/misbench:
// Algorithm 1 and Luby on GNP n=32768 with average degree 10, Algorithm 2
// on BA n=16384 m=5) on one warm Mem per case, as misbench does. It is the
// profiling entry point for the engine's per-round cost:
//
//	go test -run '^$' -bench PooledStatic -cpu 1 -cpuprofile cpu.prof .
func BenchmarkPooledStatic(b *testing.B) {
	gnp := energymis.GNP(32768, 10.0/32768, 1)
	ba := energymis.BarabasiAlbert(16384, 5, 1)
	for _, c := range []struct {
		name string
		g    *energymis.Graph
		algo energymis.Algorithm
	}{
		{"alg1-gnp", gnp, energymis.Algorithm1},
		{"luby-gnp", gnp, energymis.Luby},
		{"alg2-ba", ba, energymis.Algorithm2},
	} {
		b.Run(c.name, func(b *testing.B) {
			mem := energymis.NewMem()
			if _, err := energymis.Run(c.g, c.algo, energymis.Options{Seed: 1 << 40, Mem: mem}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := energymis.Run(c.g, c.algo, energymis.Options{Seed: uint64(i) + 1, Mem: mem}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPooledDynamic replays the inputs of the repository benchmark's
// two dynamic workloads (cmd/misbench): 64-update windows of uniform churn
// on GNP n=10⁵ with average degree 8, and a hub attack of 50 batches on
// BA n=6250 m=4, as misbench's ops (churnOps, hubOps). Each pass over the
// ops starts a fresh engine from GreedyMIS outside the timer, so ns/op is
// the time of one misbench op; awake/update is the paper's energy charge.
// It is the profiling entry point for the repair path, and each case
// builds its inputs only when it runs:
//
//	go test -run '^$' -bench PooledDynamic/hub -cpu 1 -cpuprofile cpu.prof .
func BenchmarkPooledDynamic(b *testing.B) {
	for _, c := range []struct {
		name  string
		input func() (*energymis.Graph, [][][]energymis.Update)
	}{
		{"churn", func() (*energymis.Graph, [][][]energymis.Update) {
			g := energymis.GNP(100_000, 8.0/100_000, 1)
			return g, churnOps(g, 1600, 1)
		}},
		{"hub", func() (*energymis.Graph, [][][]energymis.Update) {
			g := energymis.BarabasiAlbert(6250, 4, 1)
			return g, hubOps(g, 25, 1)
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			g, ops := c.input()
			inSet := energymis.GreedyMIS(g)
			var d *energymis.DynamicMIS
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(ops)
				if k == 0 {
					b.StopTimer()
					var err error
					if d, err = energymis.NewDynamicFrom(g, inSet, energymis.DynamicOptions{Seed: 1}); err != nil {
						b.Fatal(err)
					}
					// The last pass's engine is garbage now. Collect it
					// untimed: on this benchmark's small heap its marking
					// would otherwise land in the timed ops (misbench's 37 MB
					// of live inputs make a collection rare per pass).
					runtime.GC()
					b.StartTimer()
				}
				applyOp(b, d, ops[k])
			}
			st := d.Stats()
			b.ReportMetric(float64(st.AwakeTotal)/float64(max(st.Updates, 1)), "awake/update")
		})
	}
}

// Misbench's dynamic ops, shared by BenchmarkPooledDynamic and
// TestWarmApplyAllocs: churnOps cuts uniform churn on g into 64-update
// windows of one Apply each, and hubOps cuts a hub attack of 2·steps
// batches into steps of two Apply calls, the kill batch (the hub dies and
// an isolated replacement is inserted) and the reconnect batch (the
// replacement is wired to the hub's neighbours).

func churnOps(g *energymis.Graph, windows int, seed uint64) [][][]energymis.Update {
	var ops [][][]energymis.Update
	for _, w := range energymis.ChurnStream(g, windows, 64, seed) {
		ops = append(ops, [][]energymis.Update{w})
	}
	return ops
}

func hubOps(g *energymis.Graph, steps int, seed uint64) [][][]energymis.Update {
	attack := energymis.HubAttackStream(g, 2*steps, seed)
	var ops [][][]energymis.Update
	for i := 0; i+1 < len(attack); i += 2 {
		ops = append(ops, attack[i:i+2])
	}
	return ops
}

// applyOp applies an op's batches to d in order, one Apply each.
func applyOp(tb testing.TB, d *energymis.DynamicMIS, op [][]energymis.Update) {
	for _, batch := range op {
		if _, err := d.Apply(batch); err != nil {
			tb.Fatal(err)
		}
	}
}
