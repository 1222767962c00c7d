package dynamic_test

import (
	"fmt"
	"testing"

	"github.com/energymis/energymis/internal/dynamic"
	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/rng"
	"github.com/energymis/energymis/internal/stream"
	"github.com/energymis/energymis/internal/verify"
)

// checkMemberCounts recounts every slot's member neighbors from the
// public accessors and holds the engine's kept count to it: a live node
// counts the members its Neighbors row holds, a dead slot counts 0.
func checkMemberCounts(t *testing.T, e *dynamic.Engine, step string) {
	t.Helper()
	for v := 0; v < e.N(); v++ {
		want := int32(0)
		for _, u := range e.Neighbors(v) {
			if e.InMIS(int(u)) {
				want++
			}
		}
		if got := e.MemberCount(v); got != want {
			t.Fatalf("%s: node %d (alive %v) keeps member count %d, its row holds %d members",
				step, v, e.Alive(v), got, want)
		}
	}
	if err := e.Check(); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
}

// TestMemberCountsHeld runs both repair protocols, with SelfCheck on,
// over mixed edge and node churn, a batch rejected partway through, and
// a hub attack, and after every Apply holds each slot's kept member
// count to a recount of its row. The rejected batch's prefix removes a
// member, inserts a conflict edge and wires a new node to members; the
// updates after the rejected one must leave no count behind.
func TestMemberCountsHeld(t *testing.T) {
	for _, repair := range []dynamic.RepairAlgo{dynamic.RepairLuby, dynamic.RepairGhaffari} {
		p := dynamic.Params{Seed: 31, Repair: repair, SelfCheck: true}
		t.Run(repair.String()+"/mixed", func(t *testing.T) {
			g := graph.GNP(300, 12.0/300, 11)
			e, err := dynamic.New(g, verify.GreedyMIS(g), p)
			if err != nil {
				t.Fatal(err)
			}
			checkMemberCounts(t, e, "new")
			r := rng.New(3)
			for step := 0; step < 40; step++ {
				if _, err := e.Apply(mixedBatch(e, r, 8)); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				checkMemberCounts(t, e, fmt.Sprintf("step %d", step))
			}
			st := e.Stats()
			if st.Evictions == 0 || st.Joins == 0 {
				t.Fatalf("evictions %d, joins %d: the churn does not move membership both ways", st.Evictions, st.Joins)
			}
		})
		t.Run(repair.String()+"/rejected", func(t *testing.T) {
			g := graph.Path(12) // greedy members 0, 2, 4, 6, 8, 10
			e, err := dynamic.New(g, verify.GreedyMIS(g), p)
			if err != nil {
				t.Fatal(err)
			}
			batch := []dynamic.Update{
				dynamic.DelNode(4),           // a member leaves
				dynamic.InsEdge(0, 2),        // two members meet
				dynamic.InsNode(6, 8, 7),     // node 12 next to members
				dynamic.DelEdge(9, 10),       // a member loses a neighbor
				dynamic.InsEdge(3, 3),        // rejected: self-loop
				dynamic.InsEdge(6, 10),       // never applied
				dynamic.DelNode(8),           // never applied
				dynamic.InsNode(0, 2, 6, 10), // never applied
			}
			bs, err := e.Apply(batch)
			if err == nil {
				t.Fatal("batch with a self-loop accepted")
			}
			if bs.Updates != 4 || e.N() != 13 || e.HasEdge(6, 10) || !e.Alive(8) {
				t.Fatalf("applied %d updates, %d slots, edge (6,10) %v, node 8 alive %v; want the 4-update prefix only",
					bs.Updates, e.N(), e.HasEdge(6, 10), e.Alive(8))
			}
			checkMemberCounts(t, e, "rejected batch")
			if _, err := e.Apply([]dynamic.Update{dynamic.InsEdge(6, 10), dynamic.DelNode(8)}); err != nil {
				t.Fatal(err)
			}
			checkMemberCounts(t, e, "after the rejected batch")
		})
		t.Run(repair.String()+"/hub", func(t *testing.T) {
			g := graph.BarabasiAlbert(300, 4, 7)
			e, err := dynamic.New(g, verify.GreedyMIS(g), p)
			if err != nil {
				t.Fatal(err)
			}
			for i, batch := range stream.HubAttack(g, 30, 17) {
				if _, err := e.Apply(batch); err != nil {
					t.Fatalf("batch %d: %v", i, err)
				}
				checkMemberCounts(t, e, fmt.Sprintf("batch %d", i))
			}
			if e.Stats().Evictions == 0 {
				t.Fatal("no eviction: the attack does not exercise clearMember")
			}
		})
	}
}
