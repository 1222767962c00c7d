package phase3

import (
	"testing"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/sim"
	"github.com/energymis/energymis/internal/verify"
)

// TestStressTreeIntegrity runs the full phase on a spread of graphs and
// validates the spanning-tree invariants and the MIS on every run — the
// regression net for the re-rooting protocol.
func TestStressTreeIntegrity(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	for _, mode := range []Mode{ModeAlg1, ModeAlg2} {
		for n := 40; n <= 200; n += 40 {
			for _, d := range []float64{2, 5, 9} {
				for gseed := uint64(0); gseed < 3; gseed++ {
					g := graph.GNP(n, d/float64(n), gseed*7+uint64(n))
					p := DefaultParams()
					var cc graph.Components
					cc.Find(g)
					tt := NewTimetable(g.N(), cc.MaxSize(), mode, p)
					machines := make([]sim.Machine, g.N())
					nodes := make([]*Machine, g.N())
					all := newMachines(g.N(), tt)
					for v := range machines {
						nodes[v] = &all[v]
						machines[v] = nodes[v]
					}
					if _, err := sim.Run(g, machines, sim.Config{Seed: 1, MaxRounds: tt.TotalLen + 2}); err != nil {
						t.Fatal(err)
					}
					inSet := make([]bool, g.N())
					for v, nm := range nodes {
						if nm.tree.Parent >= 0 {
							pp := nm.tree.Parent
							if !g.HasEdge(v, int(pp)) || nodes[pp].tree.Depth != nm.tree.Depth-1 ||
								nodes[pp].tree.CID != nm.tree.CID {
								t.Fatalf("mode=%d n=%d d=%v gseed=%d: tree invariant broken at node %d",
									mode, n, d, gseed, v)
							}
						}
						if !nm.Decided() {
							t.Fatalf("mode=%d n=%d d=%v gseed=%d: node %d undecided (broken=%v)",
								mode, n, d, gseed, v, nm.Broken())
						}
						inSet[v] = nm.InMIS
					}
					if err := verify.Check(g, inSet); err != nil {
						t.Fatalf("mode=%d n=%d d=%v gseed=%d: %v", mode, n, d, gseed, err)
					}
				}
			}
		}
	}
}
