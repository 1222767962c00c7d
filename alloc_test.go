package energymis_test

// Allocation budgets of the warm paths: a static run on a pooled Mem and
// a dynamic repair window on a long-lived engine. The repository
// benchmark (cmd/misbench) prints allocations per op but does not gate on
// them, so these tests are what keeps an allocation regression out. Each
// bound is twice the count measured on the tree it was written against
// (go1.24, linux/amd64), where a measured 0 counts as 1: AllocsPerRun
// truncates its average to an integer, and twice 0 would leave no room
// for the rare adjacency row that outgrows its slack. Counts are
// deterministic in the seeds.

import (
	"testing"

	energymis "github.com/energymis/energymis"
)

// TestWarmRunAllocs bounds the heap allocations of one full run on a warm
// pooled Mem.
func TestWarmRunAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const n = 16384
	gnp := energymis.GNP(n, 10.0/n, n)
	// On BA, Algorithm 2's degree reduction runs (on GNP it does not), so
	// this case bounds its set-up, which allocates nothing per node.
	ba := energymis.BarabasiAlbert(n, 5, n)
	for _, c := range []struct {
		name     string
		g        *energymis.Graph
		algo     energymis.Algorithm
		measured float64 // allocs per run when the bound was set
	}{
		// 19 before a pipeline's residual started empty.
		{"gnp", gnp, energymis.Luby, 18},
		// Algorithms 1 and 2 were 1,978, 1,950 and 531 (measured 1,956,
		// 1,928 and 523) before Phase III's finisher sent one-word vectors,
		// then 970, 942 and 337 before Phase III's wake schedules stopped
		// allocating per tree operation and per node, then 358, 330 and
		// 189 before the finisher's ghaffari.Proto was held by value with
		// its desire levels in one per-run array, then 263, 235 and 166
		// before the survivors' components were found once, in flat
		// arrays, and the pipeline's residual started empty.
		{"gnp", gnp, energymis.Algorithm1, 135},
		{"gnp", gnp, energymis.Algorithm2, 107},
		{"ba", ba, energymis.Algorithm2, 124}, // 14,385 before the in-order schedules
	} {
		mem := energymis.NewMem()
		// AllocsPerRun makes one untimed call first, which fills the pool.
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := energymis.Run(c.g, c.algo, energymis.Options{Seed: 1, Mem: mem}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s/%s: %.0f allocs/run (measured %.0f)", c.name, c.algo, allocs, c.measured)
		if allocs > 2*c.measured {
			t.Errorf("%s/%s: %.0f allocs per warm run, budget %.0f", c.name, c.algo, allocs, 2*c.measured)
		}
	}
}

// TestWarmApplyAllocs bounds the heap allocations of repair ops on a
// warm engine seeded with GreedyMIS, for both of misbench's dynamic
// workloads: a 64-update window of uniform churn on GNP n=10⁵ at average
// degree 8, and a hub attack step (kill the hub and insert an isolated
// replacement, then wire the replacement in, one Apply each) on BA
// n=6250, m=4.
func TestWarmApplyAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const (
		width = 64  // churn updates per window
		warm  = 100 // ops applied before measuring
		runs  = 100 // measured ops
	)
	churn := energymis.GNP(100_000, 8.0/100_000, 100_000)
	hub := energymis.BarabasiAlbert(6250, 4, 6250)
	// One extra op for AllocsPerRun's untimed first call.
	var churnOps, hubOps [][][]energymis.Update
	for _, w := range energymis.ChurnStream(churn, warm+runs+1, width, 7) {
		churnOps = append(churnOps, [][]energymis.Update{w})
	}
	attack := energymis.HubAttackStream(hub, 2*(warm+runs+1), 7)
	for i := 0; i+1 < len(attack); i += 2 {
		hubOps = append(hubOps, attack[i:i+2])
	}
	for _, c := range []struct {
		name     string
		g        *energymis.Graph
		ops      [][][]energymis.Update
		measured float64 // allocs per op when the bound was set
	}{
		// 105 per window before adjacency rows had slack, nearly all of
		// them row reallocations; now 7 in the 100 measured windows.
		{"churn", churn, churnOps, 0},
		// Mostly the replacement node's row, grown one edge at a time.
		{"hub", hub, hubOps, 9},
	} {
		d, err := energymis.NewDynamicFrom(c.g, energymis.GreedyMIS(c.g), energymis.DynamicOptions{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		apply := func(op [][]energymis.Update) {
			for _, batch := range op {
				if _, err := d.Apply(batch); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, op := range c.ops[:warm] {
			apply(op)
		}
		next := warm
		allocs := testing.AllocsPerRun(runs, func() {
			apply(c.ops[next])
			next++
		})
		t.Logf("%s: %.0f allocs/op (measured %.0f)", c.name, allocs, c.measured)
		if budget := 2 * max(c.measured, 1); allocs > budget {
			t.Errorf("%s: %.0f allocs per warm op, budget %.0f", c.name, allocs, budget)
		}
		if err := d.Check(); err != nil {
			t.Fatal(err)
		}
	}
}
