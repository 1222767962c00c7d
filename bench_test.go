package energymis_test

// Benchmark harness: one benchmark per reproduction experiment (the
// E-series of cmd/sweep).
// Each benchmark reports the paper's complexity measures as custom
// metrics (rounds, awake counts) in addition to wall-clock throughput, so
// `go test -bench=. -benchmem` regenerates every experiment's headline
// series; cmd/sweep prints the same data as full markdown tables. These
// benchmarks are also the profiling entry point: add -cpuprofile,
// -memprofile or -trace to a -bench run (see docs/BENCHMARKING.md).

import (
	"fmt"
	"math"
	"testing"

	energymis "github.com/energymis/energymis"
	"github.com/energymis/energymis/internal/degreduce"
	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/phase1"
	"github.com/energymis/energymis/internal/phase3"
	"github.com/energymis/energymis/internal/schedule"
	"github.com/energymis/energymis/internal/shatter"
	"github.com/energymis/energymis/internal/sim"
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

// BenchmarkE1ComparisonTable: the §1.2/§1.3 comparison — every algorithm
// on a common graph. One sub-benchmark per (n, algorithm) row.
func BenchmarkE1ComparisonTable(b *testing.B) {
	for _, n := range []int{4096, 32768} {
		g := energymis.GNP(n, 12.0/float64(n), uint64(n))
		for _, algo := range energymis.Algorithms() {
			b.Run(fmt.Sprintf("n=%d/%s", n, algo), func(b *testing.B) {
				reportRun(b, g, algo)
			})
		}
	}
}

// BenchmarkE2Alg1Scaling: Theorem 1.1 — rounds ~ O(log² n), maxAwake ~
// O(log log n).
func BenchmarkE2Alg1Scaling(b *testing.B) {
	for _, n := range []int{2048, 16384, 131072} {
		g := energymis.GNP(n, 10.0/float64(n), uint64(n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			reportRun(b, g, energymis.Algorithm1)
		})
	}
}

// BenchmarkE3Alg2Scaling: Theorem 1.2.
func BenchmarkE3Alg2Scaling(b *testing.B) {
	for _, n := range []int{2048, 16384, 131072} {
		g := energymis.GNP(n, 10.0/float64(n), uint64(n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			reportRun(b, g, energymis.Algorithm2)
		})
	}
}

// BenchmarkE4Phase1Residual: Lemma 2.1 — residual degree after Phase I.
func BenchmarkE4Phase1Residual(b *testing.B) {
	cases := []struct {
		name string
		g    *energymis.Graph
	}{
		{"gnp-dense", energymis.GNP(2000, 0.3, 3)},
		{"ba-hubs", energymis.BarabasiAlbert(4000, 50, 5)},
		{"clique", energymis.Complete(800)},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var resid, awake int
			for i := 0; i < b.N; i++ {
				out, err := phase1.Run(tc.g, phase1.DefaultParams(), sim.Config{Seed: uint64(i) + 1})
				if err != nil {
					b.Fatal(err)
				}
				sub := graph.InducedSubgraph(tc.g, out.Residual)
				resid = sub.MaxDegree()
				awake = out.Res.MaxAwake()
			}
			log2n := math.Log2(float64(tc.g.N()))
			b.ReportMetric(float64(resid), "residualDeg")
			b.ReportMetric(float64(resid)/(log2n*log2n), "residualDeg/log²n")
			b.ReportMetric(float64(awake), "maxAwake")
		})
	}
}

// BenchmarkE5Schedule: Lemma 2.5 — schedule construction cost and size.
func BenchmarkE5Schedule(b *testing.B) {
	for _, t := range []int{1 << 8, 1 << 14, 1 << 20} {
		b.Run(fmt.Sprintf("T=%d", t), func(b *testing.B) {
			size := 0
			for i := 0; i < b.N; i++ {
				s := schedule.Set(t, i%t)
				if len(s) > size {
					size = len(s)
				}
			}
			b.ReportMetric(float64(size), "|S_k|")
			b.ReportMetric(float64(schedule.MaxSize(t)), "bound")
		})
	}
}

// BenchmarkE6Shattering: Lemma 2.6 — survivor component sizes.
func BenchmarkE6Shattering(b *testing.B) {
	for _, n := range []int{8192, 65536} {
		g := energymis.NearRegular(n, 16, uint64(n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var maxComp, survivors int
			for i := 0; i < b.N; i++ {
				out, err := shatter.Run(g, shatter.DefaultParams(), sim.Config{Seed: uint64(i) + 1})
				if err != nil {
					b.Fatal(err)
				}
				maxComp = out.MaxComponent
				survivors = len(out.Survivors)
			}
			b.ReportMetric(float64(maxComp), "maxComp")
			b.ReportMetric(float64(survivors), "survivors")
		})
	}
}

// BenchmarkE7Merge: Lemma 2.8 — merging iterations, tree depth, energy.
func BenchmarkE7Merge(b *testing.B) {
	for _, n := range []int{1024, 8192} {
		g := energymis.GNP(n, 5.0/float64(n), uint64(n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var depth, awake, iters int
			for i := 0; i < b.N; i++ {
				out, err := phase3.Run(g, phase3.DefaultParams(phase3.ModeAlg1), sim.Config{Seed: uint64(i) + 1})
				if err != nil {
					b.Fatal(err)
				}
				if len(out.Undecided) > 0 {
					b.Fatalf("%d undecided", len(out.Undecided))
				}
				depth = out.MaxDepth
				awake = out.Res.MaxAwake()
				iters = out.Timetable.Iters
			}
			b.ReportMetric(float64(depth), "treeDepth")
			b.ReportMetric(float64(depth)/math.Log2(float64(n)), "depth/logn")
			b.ReportMetric(float64(awake), "maxAwake")
			b.ReportMetric(float64(iters), "iters")
		})
	}
}

// BenchmarkE8DegreeDrop: Lemma 3.1 — Δ -> Δ^0.7 per iteration.
func BenchmarkE8DegreeDrop(b *testing.B) {
	g := energymis.GNP(2000, 0.35, 8)
	p := degreduce.DefaultParams()
	p.StopLogExp = 0
	p.StopMin = 16
	b.Run("iterated", func(b *testing.B) {
		var ratio float64
		var iters int
		for i := 0; i < b.N; i++ {
			out, err := degreduce.Run(g, p, sim.Config{Seed: uint64(i) + 1})
			if err != nil {
				b.Fatal(err)
			}
			iters = len(out.Iters)
			if iters > 0 {
				first := out.Iters[0]
				ratio = float64(first.MeasuredD) / math.Pow(float64(first.Delta), 0.7)
			}
		}
		b.ReportMetric(ratio, "Δ'/Δ^0.7")
		b.ReportMetric(float64(iters), "iters")
	})
}

// BenchmarkE9AverageEnergy: Section 4 — node-averaged energy O(1).
func BenchmarkE9AverageEnergy(b *testing.B) {
	for _, n := range []int{8192, 65536} {
		g := energymis.NearRegular(n, 24, uint64(n))
		for _, algo := range []energymis.Algorithm{energymis.Algorithm1, energymis.Algorithm1Avg} {
			b.Run(fmt.Sprintf("n=%d/%s", n, algo), func(b *testing.B) {
				reportRun(b, g, algo)
			})
		}
	}
}

// BenchmarkE10MessageSize: CONGEST compliance — bitsMax vs budget.
func BenchmarkE10MessageSize(b *testing.B) {
	g := energymis.GNP(16384, 10.0/16384, 7)
	for _, algo := range energymis.Algorithms() {
		b.Run(algo.String(), func(b *testing.B) {
			var bits int
			var viol int64
			for i := 0; i < b.N; i++ {
				res, err := energymis.Run(g, algo, energymis.Options{Seed: uint64(i) + 1})
				if err != nil {
					b.Fatal(err)
				}
				bits = res.BitsMax
				viol = res.CongestViolations
			}
			b.ReportMetric(float64(bits), "bitsMax")
			b.ReportMetric(float64(sim.DefaultB(g.N())), "B")
			if viol != 0 {
				b.Fatalf("CONGEST violations: %d", viol)
			}
		})
	}
}

// BenchmarkA3IndegreeThreshold: ablation of the Lemma 2.8 constant.
func BenchmarkA3IndegreeThreshold(b *testing.B) {
	g := energymis.GNP(4096, 5.0/4096, 11)
	for _, thresh := range []int{3, 10, 40} {
		b.Run(fmt.Sprintf("theta=%d", thresh), func(b *testing.B) {
			p := phase3.DefaultParams(phase3.ModeAlg1)
			p.IndegreeThresh = thresh
			var awake int
			for i := 0; i < b.N; i++ {
				out, err := phase3.Run(g, p, sim.Config{Seed: uint64(i) + 1})
				if err != nil {
					b.Fatal(err)
				}
				awake = out.Res.MaxAwake()
			}
			b.ReportMetric(float64(awake), "maxAwake")
		})
	}
}

// BenchmarkEngineThroughput measures raw simulator speed (node-rounds per
// second) to contextualize the experiment runtimes.
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
