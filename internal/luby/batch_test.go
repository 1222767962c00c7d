package luby

import (
	"testing"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/sim"
)

// TestBatchMatchesLegacy is the differential gate of the batch port: for
// every graph shape and seed, the struct-of-arrays batch
// automaton must produce byte-identical output and identical complexity
// counters to the per-node reference implementation.
func TestBatchMatchesLegacy(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", graph.GNP(600, 10.0/600, 3)},
		{"rgg", graph.RGG(400, 8, 5)},
		{"star", graph.Star(80)},
		{"clique", graph.Complete(60)},
		{"path", graph.Path(50)},
		{"isolated", graph.FromEdges(10, [][2]int{{0, 1}})}, // 8 degree-0 nodes
		{"empty", graph.FromEdges(0, nil)},
	}
	for _, tc := range cases {
		for seed := uint64(1); seed <= 3; seed++ {
			refSet, refRes, err := RunLegacy(tc.g, sim.Config{Seed: seed})
			if err != nil {
				t.Fatalf("%s seed=%d legacy: %v", tc.name, seed, err)
			}
			set, res, err := Run(tc.g, sim.Config{Seed: seed})
			if err != nil {
				t.Fatalf("%s seed=%d batch: %v", tc.name, seed, err)
			}
			for v := range refSet {
				if set[v] != refSet[v] {
					t.Fatalf("%s seed=%d: InSet[%d] = %v, legacy %v",
						tc.name, seed, v, set[v], refSet[v])
				}
			}
			if res.Rounds != refRes.Rounds || res.MsgsSent != refRes.MsgsSent ||
				res.MsgsDropped != refRes.MsgsDropped || res.BitsTotal != refRes.BitsTotal ||
				res.BitsMax != refRes.BitsMax || res.Violations != refRes.Violations {
				t.Fatalf("%s seed=%d: counters differ\n legacy: %+v\n batch:  %+v",
					tc.name, seed, refRes, res)
			}
			for v := range res.Awake {
				if res.Awake[v] != refRes.Awake[v] {
					t.Fatalf("%s seed=%d: Awake[%d] = %d, legacy %d",
						tc.name, seed, v, res.Awake[v], refRes.Awake[v])
				}
			}
		}
	}
}

// TestBatchMemReuse runs many simulations through one pooled Mem and checks
// each run still matches a fresh-buffer run (the stamp-epoch trick must not
// leak awake state across runs of different sizes).
func TestBatchMemReuse(t *testing.T) {
	mem := sim.NewMem()
	graphs := []*graph.Graph{
		graph.GNP(300, 8.0/300, 1),
		graph.GNP(120, 0.1, 2), // smaller: buffers shrink logically, not physically
		graph.Complete(40),
		graph.GNP(300, 8.0/300, 9),
	}
	for i, g := range graphs {
		for seed := uint64(1); seed <= 4; seed++ {
			fresh, fres, err := Run(g, sim.Config{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			pooled, pres, err := Run(g, sim.Config{Seed: seed, Mem: mem})
			if err != nil {
				t.Fatal(err)
			}
			for v := range fresh {
				if fresh[v] != pooled[v] {
					t.Fatalf("graph %d seed %d: pooled InSet[%d] differs", i, seed, v)
				}
			}
			if fres.Rounds != pres.Rounds || fres.MsgsSent != pres.MsgsSent ||
				fres.MsgsDropped != pres.MsgsDropped || fres.BitsTotal != pres.BitsTotal {
				t.Fatalf("graph %d seed %d: pooled counters differ\n fresh:  %+v\n pooled: %+v",
					i, seed, fres, pres)
			}
		}
	}
}

func benchLuby(b *testing.B, n int, batch bool) {
	g := graph.GNP(n, 10.0/float64(n), uint64(n))
	var awake int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var res *sim.Result
		var err error
		if batch {
			_, res, err = Run(g, sim.Config{Seed: 1})
		} else {
			_, res, err = RunLegacy(g, sim.Config{Seed: 1})
		}
		if err != nil {
			b.Fatal(err)
		}
		awake = 0
		for _, a := range res.Awake {
			awake += int64(a)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(awake), "ns/awake-node-round")
}

func BenchmarkLubyLegacyGNP4096(b *testing.B)  { benchLuby(b, 4096, false) }
func BenchmarkLubyBatchGNP4096(b *testing.B)   { benchLuby(b, 4096, true) }
func BenchmarkLubyLegacyGNP16384(b *testing.B) { benchLuby(b, 16384, false) }
func BenchmarkLubyBatchGNP16384(b *testing.B)  { benchLuby(b, 16384, true) }
