package energymis_test

// Profiling entry points for static runs. Each benchmark reports the
// paper's complexity measures as custom metrics (rounds, awake counts)
// next to wall-clock time; add -cpuprofile, -memprofile or -trace to a
// -bench run (see docs/BENCHMARKING.md). The paper's bounds themselves
// are checked by the package tests that cover each lemma.

import (
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
