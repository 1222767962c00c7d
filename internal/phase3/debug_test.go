package phase3

import (
	"testing"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/sim"
)

// TestTreeConsistencyAfterMerging validates the spanning-tree invariants
// that the finisher depends on: within each component all nodes share one
// cluster ID, parent pointers form a tree rooted at the CID node, and
// depths equal parent depth + 1.
func TestTreeConsistencyAfterMerging(t *testing.T) {
	g := graph.GNP(60, 0.06, 100)
	p := DefaultParams()
	var cc graph.Components
	cc.Find(g)
	tt := NewTimetable(g.N(), cc.MaxSize(), ModeAlg1, p)
	machines := make([]sim.Machine, g.N())
	nodes := make([]*Machine, g.N())
	all := newMachines(g.N(), tt)
	for v := range machines {
		nodes[v] = &all[v]
		machines[v] = nodes[v]
	}
	if _, err := sim.Run(g, machines, sim.Config{Seed: 0, MaxRounds: tt.TotalLen + 2}); err != nil {
		t.Fatal(err)
	}

	t.Logf("timetable: D=%d iters=%d LR=%d classes=%d GRounds=%d K=%d totalLen=%d",
		tt.D, tt.Iters, tt.LR, tt.Classes, tt.GRounds, tt.K, tt.TotalLen)

	for ci := 0; ci < cc.Len(); ci++ {
		comp := cc.Comp(ci)
		cid := nodes[comp[0]].tree.CID
		sameCid := true
		for _, v := range comp {
			if nodes[v].tree.CID != cid {
				sameCid = false
			}
		}
		if !sameCid {
			cids := map[int32]int{}
			for _, v := range comp {
				cids[nodes[v].tree.CID]++
			}
			t.Errorf("component %d (size %d): clusters not merged: %v", ci, len(comp), cids)
			continue
		}
		// Parent/depth invariants.
		for _, v := range comp {
			nm := nodes[v]
			if nm.tree.IsRoot() {
				if nm.tree.Depth != 0 {
					t.Errorf("root %d has depth %d", v, nm.tree.Depth)
				}
				if v != cid {
					t.Errorf("root %d but cid %d", v, cid)
				}
				continue
			}
			p := nm.tree.Parent
			if !g.HasEdge(int(v), int(p)) {
				t.Errorf("node %d parent %d not adjacent", v, p)
			}
			if nodes[p].tree.Depth != nm.tree.Depth-1 {
				t.Errorf("node %d depth %d, parent %d depth %d", v, nm.tree.Depth, p, nodes[p].tree.Depth)
			}
		}
		// Finisher diagnostics for undecided components.
		und := 0
		for _, v := range comp {
			if !nodes[v].Decided() {
				und++
			}
		}
		if und > 0 {
			nm := nodes[comp[0]]
			t.Errorf("component %d (size %d): %d undecided, broken=%v attempts=%d sameCid=%v",
				ci, len(comp), und, nm.Broken(), nm.AttemptsUsed(), sameCid)
		}
	}
}
