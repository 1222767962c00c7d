package pipeline

import (
	"slices"
	"testing"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/luby"
	"github.com/energymis/energymis/internal/sim"
	"github.com/energymis/energymis/internal/verify"
)

// TestComposition runs a two-stage Luby pipeline (full graph, then a
// residual rerun — an artificial composition exercising every primitive)
// and checks ID mapping, accounting, and the final set.
func TestComposition(t *testing.T) {
	g := graph.GNP(300, 8.0/300, 3)
	pl := New(g, sim.Config{Seed: 42})

	set1, res1, err := luby.Run(g, pl.Cfg(1))
	if err != nil {
		t.Fatal(err)
	}
	pl.Record("stage-1", res1, nil)
	pl.Join(set1, nil)
	pl.SetResidual(verify.Residual(g, set1), nil)

	if len(pl.Residual()) != 0 {
		// Luby decides everything; force a synthetic residual to exercise
		// the subgraph path anyway.
		t.Fatalf("unexpected residual %d after a full Luby run", len(pl.Residual()))
	}

	// Synthetic second stage on an explicit residual: the 50 lowest IDs.
	local := make([]int, 50)
	for i := range local {
		local[i] = i
	}
	pl.SetResidual(local, nil)
	pl.Sync("sync")
	sub := pl.Subgraph()
	if sub.Graph.N() != 50 {
		t.Fatalf("subgraph has %d nodes, want 50", sub.Graph.N())
	}
	set2, res2, err := luby.Run(sub.Graph, pl.Cfg(2))
	if err != nil {
		t.Fatal(err)
	}
	pl.Record("stage-2", res2, sub.Orig)
	pl.Join(set2, sub.Orig)

	sum := pl.Summary()
	if sum.Rounds != res1.Rounds+1+res2.Rounds {
		t.Fatalf("composed rounds %d, want %d+1+%d", sum.Rounds, res1.Rounds, res2.Rounds)
	}
	if sum.MsgsSent != res1.MsgsSent+res2.MsgsSent {
		t.Fatalf("composed messages %d, want %d", sum.MsgsSent, res1.MsgsSent+res2.MsgsSent)
	}
	// Per-node awake counts must compose through the ID mapping.
	per := pl.AwakePerNode()
	for v := 0; v < g.N(); v++ {
		want := int64(res1.Awake[v])
		if v < 50 {
			want += 1 + int64(res2.Awake[v]) // sync charged to IDs 0..49
		}
		if per[v] != want {
			t.Fatalf("AwakePerNode[%d] = %d, want %d", v, per[v], want)
		}
	}
	in := pl.InSet()
	for v, s := range set1 {
		if s && !in[v] {
			t.Fatalf("stage-1 member %d missing from composed set", v)
		}
	}
}

// TestSharedMemIdentical reruns pipelines of different sizes through one
// shared Mem pool and checks results match fresh-buffer runs: the pool must
// not leak any state across phases or pipelines.
func TestSharedMemIdentical(t *testing.T) {
	mem := sim.NewMem()
	graphs := []*graph.Graph{
		graph.GNP(250, 8.0/250, 1),
		graph.GNP(80, 0.1, 2),
		graph.Complete(40),
	}
	for i, g := range graphs {
		for seed := uint64(1); seed <= 3; seed++ {
			fresh := New(g, sim.Config{Seed: seed})
			pooled := New(g, sim.Config{Seed: seed, Mem: mem})
			fs, fr, err := luby.Run(g, fresh.Cfg(1))
			if err != nil {
				t.Fatal(err)
			}
			ps, pr, err := luby.Run(g, pooled.Cfg(1))
			if err != nil {
				t.Fatal(err)
			}
			for v := range fs {
				if fs[v] != ps[v] {
					t.Fatalf("graph %d seed %d: pooled InSet[%d] differs", i, seed, v)
				}
			}
			if fr.Rounds != pr.Rounds || fr.MsgsSent != pr.MsgsSent || fr.BitsTotal != pr.BitsTotal {
				t.Fatalf("graph %d seed %d: pooled counters differ", i, seed)
			}
		}
	}
}

// TestSubgraphSharedUntilSetResidual holds Subgraph to one induced
// subgraph per residual: repeated calls return the same *Subgraph, Sync
// and Record leave it in place, and SetResidual, even with the same
// nodes, yields a fresh one of the new residual.
func TestSubgraphSharedUntilSetResidual(t *testing.T) {
	g := graph.GNP(200, 10.0/200, 5)
	pl := New(g, sim.Config{Seed: 1})
	if sub := pl.Subgraph(); sub.Graph.N() != 0 {
		t.Fatalf("subgraph before any SetResidual has %d nodes, want 0", sub.Graph.N())
	}
	keep := []int{1, 4, 9, 16, 25, 36, 49, 64, 81, 100}
	pl.SetResidual(keep, nil)
	first := pl.Subgraph()
	pl.Sync("sync")
	set, res, err := luby.Run(first.Graph, pl.Cfg(1))
	if err != nil {
		t.Fatal(err)
	}
	pl.Join(set, first.Orig)
	pl.Record("stage", res, first.Orig)
	if again := pl.Subgraph(); again != first {
		t.Fatal("a second Subgraph call on the same residual built a new subgraph")
	}
	want := graph.InducedSubgraph(g, keep)
	if first.Graph.N() != want.Graph.N() || first.Graph.M() != want.Graph.M() || !slices.Equal(first.Orig, want.Orig) {
		t.Fatalf("subgraph has %d nodes, %d edges, orig %v; want %d, %d, %v",
			first.Graph.N(), first.Graph.M(), first.Orig, want.Graph.N(), want.Graph.M(), want.Orig)
	}

	pl.SetResidual([]int{0, 2, 3}, first.Orig) // original IDs 1, 9, 16
	second := pl.Subgraph()
	if second == first {
		t.Fatal("SetResidual kept the previous residual's subgraph")
	}
	if !slices.Equal(second.Orig, []int32{1, 9, 16}) {
		t.Fatalf("subgraph orig %v, want [1 9 16]", second.Orig)
	}
	pl.SetResidual(pl.Residual(), nil)
	if pl.Subgraph() == second {
		t.Fatal("SetResidual with the same nodes kept the previous subgraph")
	}
}
