package energymis_test

// Dynamic-workload benchmarks (experiment D1/D2 of cmd/sweep): repair cost
// under churn vs. re-running the static algorithm after every update. The
// headline metric is awake/update — total node-awake-rounds per update —
// which is where the sleeping model's locality pays off.

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

// BenchmarkDynamicHubAttack measures repair under the adversarial stream.
func BenchmarkDynamicHubAttack(b *testing.B) {
	g := energymis.BarabasiAlbert(5000, 4, 3)
	trace := energymis.HubAttackStream(g, 100, 5)
	var st energymis.DynamicStats
	for i := 0; i < b.N; i++ {
		d, err := energymis.NewDynamic(g, energymis.Luby, energymis.DynamicOptions{Seed: uint64(i) + 1})
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
	b.ReportMetric(float64(st.AwakeTotal)/float64(st.Batches), "awake/batch")
	b.ReportMetric(float64(st.MaxRegion), "maxRegion")
	b.ReportMetric(float64(st.Evictions), "evictions")
}
