package energymis_test

// Allocation budgets of the warm paths, a static run on a pooled Mem and
// a dynamic repair op on a long-lived engine, and byte budgets for a warm
// static run and for one batch that inserts many nodes. The repository
// benchmark (cmd/misbench) prints allocations per op but does not gate on
// them, so these tests are what keeps an allocation regression out. Each
// bound is twice the count measured on the tree it was written against
// (go1.24, linux/amd64), where a measured 0 counts as 1: AllocsPerRun
// truncates its average to an integer, and twice 0 would leave no room
// for the rare adjacency row that outgrows its slack. The warm run's byte
// bound is 1.25 times its measured bytes instead, because twice would
// hide a new per-run slice of n entries. Counts and bytes are
// deterministic in the seeds.

import (
	"runtime"
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
		// arrays, and the pipeline's residual started empty. Algorithm 2
		// on GNP and BA was 107 and 124 before degree reduction recorded
		// each iteration through the pipeline (no set, ID chain or
		// residual copy of its own). Algorithm 1 on GNP was 135 before
		// an empty Phase I plan stopped running the engine. Algorithms 1
		// and 2 were 108, 105 and 120 before Phase II kept one state byte
		// per node in place of a desire level and a flag byte.
		{"gnp", gnp, energymis.Algorithm1, 107},
		{"gnp", gnp, energymis.Algorithm2, 104},
		{"ba", ba, energymis.Algorithm2, 119}, // 14,385 before the in-order schedules
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

// TestWarmRunBytes bounds the bytes one warm run of Algorithm 1 on GNP
// allocates, per node: a per-run slice of n entries is one allocation,
// which TestWarmRunAllocs cannot tell from a small one. On this graph
// Phase I plans no iteration; while it still ran the engine and built an
// n-node residual, a run allocated 151 bytes per node here, and 106
// before Phase II kept one state byte per node in place of an 8-byte
// desire level and a flag byte.
func TestWarmRunBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const (
		n        = 16384
		runs     = 3
		measured = 98 // bytes per node per run when the bound was set
	)
	g := energymis.GNP(n, 10.0/n, n)
	mem := energymis.NewMem()
	run := func() {
		if _, err := energymis.Run(g, energymis.Algorithm1, energymis.Options{Seed: 1, Mem: mem}); err != nil {
			t.Fatal(err)
		}
	}
	run() // fill the pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	perNode := float64(after.TotalAlloc-before.TotalAlloc) / runs / n
	t.Logf("gnp/algorithm1: %.1f bytes per node per run (measured %d)", perNode, measured)
	if perNode > 1.25*measured {
		t.Errorf("gnp/algorithm1: %.1f bytes per node per warm run, budget %.1f", perNode, 1.25*measured)
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
		warm = 100 // ops applied before measuring
		runs = 100 // measured ops
	)
	churn := energymis.GNP(100_000, 8.0/100_000, 100_000)
	hub := energymis.BarabasiAlbert(6250, 4, 6250)
	for _, c := range []struct {
		name     string
		g        *energymis.Graph
		ops      [][][]energymis.Update // warm+runs+1: AllocsPerRun makes one untimed call
		measured float64                // allocs per op when the bound was set
	}{
		// 105 per window before adjacency rows had slack, nearly all of
		// them row reallocations; now 7 in the 100 measured windows.
		{"churn", churn, churnOps(churn, warm+runs+1, 7), 0},
		// 9 before the replacement node's row was sized at its first
		// edge insert instead of doubling through its reconnect batch.
		{"hub", hub, hubOps(hub, warm+runs+1, 7), 1},
	} {
		d, err := energymis.NewDynamicFrom(c.g, energymis.GreedyMIS(c.g), energymis.DynamicOptions{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range c.ops[:warm] {
			applyOp(t, d, op)
		}
		next := warm
		allocs := testing.AllocsPerRun(runs, func() {
			applyOp(t, d, c.ops[next])
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

// TestBulkInsertBytes bounds the bytes of one Apply that inserts 1,000
// edgeless nodes and then the 4,012 edges of a GNP graph among them. One
// row per batch may be sized ahead of need, for the hub attack's
// replacement node; sizing each new node's row for the rest of the batch
// allocated 14.4 MB here, 2,865 bytes per update. The engine's member
// count per slot adds 4 bytes per new node: 142 bytes per update before
// it, 144 with it (the bound was 147 before it).
func TestBulkInsertBytes(t *testing.T) {
	const (
		k        = 1000
		measured = 144 // bytes per update when the bound was set
	)
	g := energymis.GNP(k, 8.0/k, 1)
	batch := make([]energymis.Update, 0, k+g.M())
	for range k {
		batch = append(batch, energymis.InsNode())
	}
	for v := range k {
		for _, u := range g.Neighbors(v) {
			if int(u) > v {
				batch = append(batch, energymis.InsEdge(v, int(u)))
			}
		}
	}
	d, err := energymis.NewDynamicFrom(energymis.NewBuilder(0).Build(), nil, energymis.DynamicOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := d.Apply(batch); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perUpdate := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(batch))
	t.Logf("%d updates: %.0f bytes per update (measured %d)", len(batch), perUpdate, measured)
	if perUpdate > 2*measured {
		t.Errorf("%.0f bytes per update, budget %d", perUpdate, 2*measured)
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
}
