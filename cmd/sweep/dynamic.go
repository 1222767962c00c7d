package main

// Dynamic-workload experiments (the repair engine of internal/dynamic):
//
//	D1 — repair vs. per-update recompute under uniform churn
//	D2 — repair cost across stream classes (churn, window, hub attack)
//	D3 — sustained updates/sec vs. the coalescing window, per stream class
//	D5 — sustained updates/sec vs. graph size

import (
	"fmt"
	"time"

	energymis "github.com/energymis/energymis"
)

// replay applies a trace and returns the cumulative stats.
func replay(d *energymis.DynamicMIS, trace [][]energymis.Update) (energymis.DynamicStats, error) {
	for i, batch := range trace {
		if _, err := d.Apply(batch); err != nil {
			return energymis.DynamicStats{}, fmt.Errorf("batch %d: %w", i, err)
		}
		if err := d.Check(); err != nil {
			return energymis.DynamicStats{}, fmt.Errorf("batch %d: %w", i, err)
		}
	}
	return d.Stats(), nil
}

// D1: dynamic repair vs. re-running the static algorithm after each
// update. Static cost is measured on sampled snapshots and extrapolated
// over the whole stream.
func runD1(c sweepConfig) error {
	var rows [][]string
	updates := 1000
	for _, n := range []int{c.n(4000), c.n(10000)} {
		g := energymis.GNP(n, 8.0/float64(n), uint64(n))
		d, err := energymis.NewDynamic(g, energymis.Luby, energymis.DynamicOptions{Seed: 1})
		if err != nil {
			return err
		}
		trace := energymis.ChurnStream(g, updates, 1, uint64(n))
		var staticAwake int64
		samples := 0
		for i, batch := range trace {
			if _, err := d.Apply(batch); err != nil {
				return err
			}
			if err := d.Check(); err != nil {
				return fmt.Errorf("D1: update %d: %w", i, err)
			}
			if i%100 == 99 {
				snap, _, _ := d.Snapshot()
				res, err := energymis.Run(snap, energymis.Luby, energymis.Options{Seed: uint64(i)})
				if err != nil {
					return err
				}
				for _, a := range res.AwakePerNode {
					staticAwake += a
				}
				samples++
			}
		}
		st := d.Stats()
		perUpdate := float64(st.AwakeTotal) / float64(st.Updates)
		staticPer := float64(staticAwake) / float64(samples)
		rows = append(rows, []string{
			i0(n), i0(int(st.Updates)), f2(perUpdate), f2(staticPer),
			f2(staticPer / perUpdate),
			f2(float64(st.WokenTotal) / float64(st.Updates)), i0(st.MaxRegion),
		})
	}
	table([]string{"n", "updates", "awake/update (repair)", "awake/update (recompute)",
		"saving x", "woken/update", "max region"}, rows)
	fmt.Println()
	fmt.Println("(every intermediate set validated as a maximal independent set; " +
		"recompute column sampled every 100 updates)")
	return nil
}

// D2: repair cost across the three stream classes.
func runD2(c sweepConfig) error {
	n := c.n(5000)
	var rows [][]string
	type gen struct {
		name  string
		graph *energymis.Graph
		trace func(g *energymis.Graph) [][]energymis.Update
	}
	gnp := energymis.GNP(n, 8.0/float64(n), 2)
	ba := energymis.BarabasiAlbert(n, 4, 2)
	empty := energymis.NewBuilder(n).Build()
	gens := []gen{
		{"uniform-churn", gnp, func(g *energymis.Graph) [][]energymis.Update {
			return energymis.ChurnStream(g, 500, 1, 3)
		}},
		{"sliding-window", empty, func(g *energymis.Graph) [][]energymis.Update {
			return energymis.WindowStream(n, 4*n, 500, 3)
		}},
		{"hub-attack", ba, func(g *energymis.Graph) [][]energymis.Update {
			return energymis.HubAttackStream(g, 100, 3)
		}},
	}
	for _, gn := range gens {
		d, err := energymis.NewDynamic(gn.graph, energymis.Luby, energymis.DynamicOptions{Seed: 4})
		if err != nil {
			return err
		}
		st, err := replay(d, gn.trace(gn.graph))
		if err != nil {
			return fmt.Errorf("D2 %s: %w", gn.name, err)
		}
		rows = append(rows, []string{
			gn.name, i0(int(st.Updates)), i0(int(st.Batches)),
			f2(float64(st.AwakeTotal) / float64(st.Updates)),
			f2(float64(st.Messages) / float64(st.Updates)),
			i0(st.MaxRegion), i0(int(st.Evictions)), i0(int(st.Joins)),
		})
	}
	table([]string{"stream", "updates", "batches", "awake/update", "msgs/update",
		"max region", "evictions", "joins"}, rows)
	return nil
}

// D3: sustained update throughput against the coalescing window, per
// stream class. The engine starts from a greedy MIS (no bootstrap) so the
// wall clock measures pure repair throughput; each configuration keeps the
// best of -seeds timed replays. These numbers are wall-clock,
// machine-dependent and ungated; the gated measure of repair throughput
// is misbench's dyn-churn workload (see docs/BENCHMARKING.md).
func runD3(c sweepConfig) error {
	windows := []int{1, 8, 64, 256}
	upd := func(base int) int {
		u := int(float64(base) * c.scale)
		if u < 256 {
			u = 256
		}
		return u
	}
	type class struct {
		name string
		g    *energymis.Graph
		flat []energymis.Update
	}
	var classes []class
	{
		n := c.n(50000)
		g := energymis.GNP(n, 8.0/float64(n), 5)
		classes = append(classes, class{"uniform-churn", g,
			energymis.FlattenStream(energymis.ChurnStream(g, upd(12800), 1, 6))})
	}
	{
		n := c.n(20000)
		g := energymis.NewBuilder(n).Build()
		classes = append(classes, class{"sliding-window", g,
			energymis.FlattenStream(energymis.WindowStream(n, 500, upd(6400), 6))})
	}
	{
		n := c.n(10000)
		g := energymis.BarabasiAlbert(n, 4, 6)
		classes = append(classes, class{"hub-attack", g,
			energymis.FlattenStream(energymis.HubAttackStream(g, upd(200), 6))})
	}
	reps := c.seeds
	var rows [][]string
	for _, cl := range classes {
		inSet := energymis.GreedyMIS(cl.g)
		for _, w := range windows {
			var best float64
			var st energymis.DynamicStats
			for rep := 0; rep < reps; rep++ {
				d, err := energymis.NewDynamicFrom(cl.g, inSet, energymis.DynamicOptions{Seed: 9, Window: w})
				if err != nil {
					return err
				}
				start := time.Now()
				if _, err := d.ApplyBatch(cl.flat); err != nil {
					return fmt.Errorf("D3 %s w=%d: %w", cl.name, w, err)
				}
				elapsed := time.Since(start).Seconds()
				if ups := float64(len(cl.flat)) / elapsed; ups > best {
					best = ups
				}
				if rep == 0 {
					if err := d.Check(); err != nil {
						return fmt.Errorf("D3 %s w=%d: %w", cl.name, w, err)
					}
					st = d.Stats()
				}
			}
			rows = append(rows, []string{
				cl.name, i0(cl.g.N()), i0(int(st.Updates)), i0(w), i0(int(st.Batches)),
				fmt.Sprintf("%.0f", best),
				f2(float64(st.AwakeTotal) / float64(max64(st.Updates, 1))),
			})
		}
	}
	headers := []string{"stream", "n", "updates", "window", "batches", "updates/sec", "awake/update"}
	table(headers, rows)
	fmt.Println()
	fmt.Println("(wall-clock best of " + i0(reps) + " replays, ungated)")
	return c.writeCSV("D3.csv",
		[]string{"stream", "n", "updates", "window", "batches", "updates_per_sec", "awake_per_update"}, rows)
}

// D5: sustained update throughput against graph size: uniform churn at
// window 64 on sparse GNP, n from 10⁴ to 10⁶.
func runD5(c sweepConfig) error {
	reps := c.seeds
	upd := func(n int) int {
		u := n / 4
		if u > 51200 {
			u = 51200
		}
		if u < 256 {
			u = 256
		}
		return u
	}
	const window = 64
	opts := energymis.DynamicOptions{Seed: 9, Window: window}
	var rows [][]string
	for _, base := range []int{10000, 100000, 1000000} {
		n := c.n(base)
		g := energymis.GNP(n, 8.0/float64(n), uint64(n))
		flat := energymis.FlattenStream(energymis.ChurnStream(g, upd(n), 1, 6))
		inSet := energymis.GreedyMIS(g)
		var best float64
		var st energymis.DynamicStats
		var perf energymis.DynamicPerf
		for rep := 0; rep < reps; rep++ {
			d, err := energymis.NewDynamicFrom(g, inSet, opts)
			if err != nil {
				return err
			}
			start := time.Now()
			if _, err := d.ApplyBatch(flat); err != nil {
				return fmt.Errorf("D5 n=%d: %w", n, err)
			}
			elapsed := time.Since(start).Seconds()
			if ups := float64(len(flat)) / elapsed; ups > best {
				best = ups
			}
			if rep == 0 {
				if err := d.Check(); err != nil {
					return fmt.Errorf("D5 n=%d: %w", n, err)
				}
				st = d.Stats()
				perf = d.Perf()
			}
		}
		rows = append(rows, []string{
			i0(n), i0(len(flat)), i0(window),
			fmt.Sprintf("%.0f", best),
			f2(float64(st.AwakeTotal) / float64(max64(st.Updates, 1))),
			i0(int(perf.SweepWords)),
		})
	}
	headers := []string{"n", "updates", "window", "updates/sec",
		"awake/update", "sweep words"}
	table(headers, rows)
	fmt.Println()
	fmt.Println("(uniform churn, wall-clock best of " + i0(reps) + " replays)")
	return c.writeCSV("D5.csv",
		[]string{"n", "updates", "window", "updates_per_sec",
			"awake_per_update", "sweep_words"}, rows)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
