package energymis_test

// Dynamic-workload benchmarks: repair cost under churn vs. re-running the
// static algorithm after every update, and throughput against the
// coalescing window (repair under the hub attack, at misbench's size, is
// BenchmarkPooledDynamic/hub). The headline metric is awake/update —
// total node-awake-rounds per update — which is where the sleeping
// model's locality pays off. The claims behind the README's repair saving
// and docs/DYNAMIC.md's window guidance are tests
// (TestDynamicAcceptance10k, TestWindowCoalescesHubAttack).

import (
	"fmt"
	"testing"

	energymis "github.com/energymis/energymis"
)

// reportDynamic reports an engine lifetime's repair cost per update and,
// since each iteration's wall time includes the bootstrap, its ns per
// awake node-round over bootstrap plus repairs.
func reportDynamic(b *testing.B, st energymis.DynamicStats) {
	b.Helper()
	b.ReportMetric(float64(st.AwakeTotal)/float64(max(st.Updates, 1)), "awake/update")
	b.ReportMetric(float64(st.MaxRegion), "maxRegion")
	if st.Updates > 0 {
		b.ReportMetric(float64(st.WokenTotal)/float64(st.Updates), "woken/update")
	}
	if awake := st.AwakeTotal + st.BootstrapAwake; awake > 0 && b.N > 0 {
		perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.ReportMetric(perOp/float64(awake), "ns/awake-node-round")
	}
}

func benchChurn(b *testing.B, n, updates int, repair energymis.RepairAlgo) {
	g := energymis.GNP(n, 8.0/float64(n), uint64(n))
	trace := energymis.ChurnStream(g, updates, 1, 7)
	var st energymis.DynamicStats
	for i := 0; i < b.N; i++ {
		d, err := energymis.NewDynamic(g, energymis.Luby, energymis.DynamicOptions{Seed: uint64(i) + 1, Repair: repair})
		if err != nil {
			b.Fatal(err)
		}
		for _, batch := range trace {
			if _, err := d.Apply(batch); err != nil {
				b.Fatal(err)
			}
		}
		st = d.Stats()
	}
	reportDynamic(b, st)
}

// BenchmarkDynamicChurn measures localized repair under uniform churn.
func BenchmarkDynamicChurn(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		for _, repair := range []energymis.RepairAlgo{energymis.RepairLuby, energymis.RepairGhaffari} {
			b.Run(fmt.Sprintf("n=%d/repair=%v", n, repair), func(b *testing.B) {
				benchChurn(b, n, 200, repair)
			})
		}
	}
}

// BenchmarkStaticRecompute measures the alternative the repair engine
// replaces: a full static run per update (one run per iteration; its
// awake/update is the per-update cost of recomputing from scratch).
func BenchmarkStaticRecompute(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := energymis.GNP(n, 8.0/float64(n), uint64(n))
			var awake int64
			for i := 0; i < b.N; i++ {
				res, err := energymis.Run(g, energymis.Luby, energymis.Options{Seed: uint64(i) + 1})
				if err != nil {
					b.Fatal(err)
				}
				awake = res.AwakeTotal
			}
			b.ReportMetric(float64(awake), "awake/update")
		})
	}
}

// BenchmarkDynamicWindow replays three stream classes through ApplyBatch
// at windows 1, 8, 64 and 256: uniform churn on GNP n=50,000 (12,800
// updates), sliding-window arrivals on an empty graph of n=20,000 (6,400
// steps), and the hub attack on BA n=10,000 m=4 (200 kills). Each engine
// starts from GreedyMIS, so the timer sees repairs only. It reports
// updates/s and awake/update, the surface docs/DYNAMIC.md's window
// guidance reads:
//
//	go test -run '^$' -bench DynamicWindow -benchtime 5x .
func BenchmarkDynamicWindow(b *testing.B) {
	churn := energymis.GNP(50000, 8.0/50000, 5)
	ba := energymis.BarabasiAlbert(10000, 4, 6)
	for _, c := range []struct {
		name string
		g    *energymis.Graph
		flat []energymis.Update
	}{
		{"churn", churn, energymis.FlattenStream(energymis.ChurnStream(churn, 12800, 1, 6))},
		{"window", energymis.NewBuilder(20000).Build(), energymis.FlattenStream(energymis.WindowStream(20000, 500, 6400, 6))},
		{"hub", ba, energymis.FlattenStream(energymis.HubAttackStream(ba, 200, 6))},
	} {
		inSet := energymis.GreedyMIS(c.g)
		for _, w := range []int{1, 8, 64, 256} {
			b.Run(fmt.Sprintf("%s/w=%d", c.name, w), func(b *testing.B) {
				var st energymis.DynamicStats
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					d, err := energymis.NewDynamicFrom(c.g, inSet, energymis.DynamicOptions{Seed: 9, Window: w})
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if _, err := d.ApplyBatch(c.flat); err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					if err := d.Check(); err != nil {
						b.Fatal(err)
					}
					st = d.Stats()
				}
				b.ReportMetric(float64(len(c.flat)*b.N)/b.Elapsed().Seconds(), "updates/s")
				b.ReportMetric(float64(st.AwakeTotal)/float64(max(st.Updates, 1)), "awake/update")
			})
		}
	}
}
