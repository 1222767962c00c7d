package energymis

import (
	"slices"
	"testing"
)

// TestDynamicChurnProperty is the dynamic subsystem's main property test:
// over a 1,000-step random churn stream, after every single update the
// repaired set must (a) pass the MIS validity check on the current
// topology, and (b) agree in validity with a from-scratch static Run on a
// snapshot of the current graph — same-validity, not same-set, since the
// maintained set and a fresh run legitimately differ.
func TestDynamicChurnProperty(t *testing.T) {
	g := GNP(300, 9.0/300, 17)
	d, err := NewDynamic(g, Luby, DynamicOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	trace := ChurnStream(g, 1000, 1, 23)
	for i, batch := range trace {
		if _, err := d.Apply(batch); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		if err := d.Check(); err != nil {
			t.Fatalf("update %d: maintained set invalid: %v", i, err)
		}
		snap, _, inSet := d.Snapshot()
		if err := Check(snap, inSet); err != nil {
			t.Fatalf("update %d: snapshot disagreement: %v", i, err)
		}
		res, err := Run(snap, Luby, Options{Seed: uint64(i) + 1})
		if err != nil {
			t.Fatalf("update %d: static run: %v", i, err)
		}
		if err := Check(snap, res.InSet); err != nil {
			t.Fatalf("update %d: from-scratch run invalid: %v", i, err)
		}
	}
	if st := d.Stats(); st.Updates != 1000 {
		t.Fatalf("updates = %d", st.Updates)
	}
}

// TestDynamicNodeChurnProperty exercises the node operations through the
// public API under a mixed stream including hub attacks.
func TestDynamicNodeChurnProperty(t *testing.T) {
	g := BarabasiAlbert(250, 3, 7)
	for _, repair := range []RepairAlgo{RepairLuby, RepairGhaffari} {
		d, err := NewDynamic(g, Algorithm1, DynamicOptions{Seed: 9, Repair: repair, SelfCheck: true})
		if err != nil {
			t.Fatal(err)
		}
		for i, batch := range HubAttackStream(g, 30, 3) {
			if _, err := d.Apply(batch); err != nil {
				t.Fatalf("repair=%v batch %d: %v", repair, i, err)
			}
		}
		if d.AliveCount() != g.N() {
			t.Fatalf("alive = %d", d.AliveCount())
		}
	}
}

// TestDynamicAcceptance10k is the PR's acceptance criterion: on a GNP
// n=10,000 uniform-churn stream of 1,000 updates, every intermediate set
// is a valid MIS, and dynamic repair spends >= 10x fewer total
// node-awake-rounds than re-running the static algorithm after each
// update (static cost measured on sampled snapshots and extrapolated).
func TestDynamicAcceptance10k(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const (
		n       = 10_000
		updates = 1000
		sample  = 100 // static recompute measured every sample-th update
	)
	g := GNP(n, 8.0/n, 1)
	d, err := NewDynamic(g, Luby, DynamicOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	trace := ChurnStream(g, updates, 1, 3)
	var staticAwakeSampled int64
	samples := 0
	for i, batch := range trace {
		if _, err := d.Apply(batch); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		if err := d.Check(); err != nil {
			t.Fatalf("update %d: invalid intermediate set: %v", i, err)
		}
		if i%sample == sample-1 {
			snap, _, _ := d.Snapshot()
			res, err := Run(snap, Luby, Options{Seed: uint64(i)})
			if err != nil {
				t.Fatalf("static sample at %d: %v", i, err)
			}
			for _, a := range res.AwakePerNode {
				staticAwakeSampled += a
			}
			samples++
		}
	}
	st := d.Stats()
	if st.Updates != updates {
		t.Fatalf("updates = %d", st.Updates)
	}
	staticTotal := staticAwakeSampled / int64(samples) * int64(updates)
	if st.AwakeTotal*10 > staticTotal {
		t.Fatalf("dynamic repair awake %d not 10x below per-update recompute %d",
			st.AwakeTotal, staticTotal)
	}
	t.Logf("dynamic awake=%d vs recompute-every-update awake=%d (%.0fx saving; woken/update=%.1f)",
		st.AwakeTotal, staticTotal,
		float64(staticTotal)/float64(st.AwakeTotal),
		float64(st.WokenTotal)/float64(st.Updates))
}

func TestDynamicPublicSurface(t *testing.T) {
	g := Path(4)
	d, err := NewDynamic(g, Luby, DynamicOptions{Seed: 1, SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if d.Algorithm() != Luby || d.N() != 4 || d.M() != 3 || d.MISSize() == 0 {
		t.Fatalf("surface: %d nodes %d edges mis=%d", d.N(), d.M(), d.MISSize())
	}
	id, _, err := d.InsertNode(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Alive(id) || d.Degree(id) != 2 || !d.HasEdge(id, 0) {
		t.Fatal("insert-node surface wrong")
	}
	if _, err := d.Apply([]Update{DelEdge(1, 2), InsEdge(1, 3)}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.RemoveNode(id); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Batches != 3 || st.BootstrapRounds == 0 {
		t.Fatalf("stats: %+v", st)
	}
	if len(d.AwakePerNode()) != d.N() {
		t.Fatal("awake vector length")
	}
	if _, err := NewDynamic(g, Algorithm(0), DynamicOptions{}); err == nil {
		t.Fatal("unknown bootstrap algorithm accepted")
	}
}

// TestApplyBatchRejectsMiddleWindow pins ApplyBatch's error path: an
// invalid update in the second of three windows leaves the first window
// and the failing window's valid prefix applied and repaired, applies
// nothing after the rejected update, reports exactly the applied count,
// and keeps the maintained set a valid MIS.
func TestApplyBatchRejectsMiddleWindow(t *testing.T) {
	g := Path(20)
	updates := []Update{
		// Window 1: applied.
		DelEdge(0, 1), InsEdge(0, 5), DelEdge(2, 3), InsEdge(3, 9),
		// Window 2: one valid update, then a self-loop.
		InsEdge(10, 15), InsEdge(7, 7), DelEdge(12, 13), InsEdge(14, 18),
		// Window 3: never reached.
		DelEdge(16, 17), InsEdge(1, 19), DelEdge(4, 5), InsEdge(2, 11),
	}
	const window, applied = 4, 5
	d, err := NewDynamicFrom(g, GreedyMIS(g), DynamicOptions{Seed: 3, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := d.ApplyBatch(updates)
	if err == nil {
		t.Fatal("ApplyBatch accepted a self-loop")
	}
	if bs.Updates != applied {
		t.Fatalf("BatchStats.Updates = %d, want %d", bs.Updates, applied)
	}
	for i, up := range updates {
		if up.U == up.V {
			continue
		}
		// Every pair starts in the opposite state of its update, so an
		// edge's presence tells whether its update ran.
		ran := d.HasEdge(up.U, up.V) == (up.Op == OpInsertEdge)
		if ran != (i < applied) {
			t.Errorf("update %d (%s %d-%d): applied=%v, want %v", i, up.Op, up.U, up.V, ran, i < applied)
		}
	}
	if !d.IsValidMIS() {
		t.Fatalf("invalid MIS after rejected window: %v", d.Check())
	}
	if st := d.Stats(); st.Updates != applied || st.Batches != 2 {
		t.Fatalf("stats after rejected window: updates=%d batches=%d, want %d/2", st.Updates, st.Batches, applied)
	}

	// The failed call repaired exactly what a clean run of the same
	// windows repairs.
	ref, err := NewDynamicFrom(g, GreedyMIS(g), DynamicOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, win := range [][]Update{updates[:window], updates[window:applied]} {
		if _, err := ref.Apply(win); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(d.InSet(), ref.InSet()) || d.Stats() != ref.Stats() {
		t.Fatalf("rejected-window state differs from the clean prefix run:\n got %+v\nwant %+v", d.Stats(), ref.Stats())
	}
}

func TestWindowStreamPublic(t *testing.T) {
	trace := WindowStream(80, 40, 200, 5)
	if StreamUpdates(trace) == 0 {
		t.Fatal("empty trace")
	}
	d, err := NewDynamic(NewBuilder(80).Build(), Luby, DynamicOptions{Seed: 1, SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range trace {
		if _, err := d.Apply(b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
}
