package energymis_test

// Allocation budgets of the warm paths: a static run on a pooled Mem and
// a dynamic repair window on a long-lived engine. The repository
// benchmark (cmd/misbench) prints allocations per op but does not gate on
// them, so these tests are what keeps an allocation regression out. Each
// bound is twice the count measured on the tree it was written against
// (go1.24, linux/amd64); counts are deterministic in the seeds.

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
		{"gnp", gnp, energymis.Luby, 18},
		{"gnp", gnp, energymis.Algorithm1, 1978},
		{"gnp", gnp, energymis.Algorithm2, 1950},
		{"ba", ba, energymis.Algorithm2, 531}, // 14,385 before the in-order schedules
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

// TestWarmApplyAllocs bounds the heap allocations of one 64-update window
// of uniform churn applied to a warm engine: GNP n=10⁵ at average degree
// 8 seeded with GreedyMIS, as in misbench's dyn-churn workload.
func TestWarmApplyAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const (
		n        = 100_000
		width    = 64  // updates per window
		warm     = 100 // windows applied before measuring
		runs     = 100 // measured windows
		measured = 105 // allocs per window when the bound was set
	)
	g := energymis.GNP(n, 8.0/n, n)
	// One extra window for AllocsPerRun's untimed first call.
	windows := energymis.ChurnStream(g, warm+runs+1, width, 7)
	d, err := energymis.NewDynamicFrom(g, energymis.GreedyMIS(g), energymis.DynamicOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range windows[:warm] {
		if _, err := d.Apply(w); err != nil {
			t.Fatal(err)
		}
	}
	next := warm
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := d.Apply(windows[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	t.Logf("%.0f allocs/window, %.2f per update (measured %d)", allocs, allocs/width, measured)
	if allocs > 2*measured {
		t.Errorf("%.0f allocs per warm window, budget %d", allocs, 2*measured)
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
}
