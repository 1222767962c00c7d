package dynamic

import (
	"reflect"
	"strings"
	"testing"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/rng"
	"github.com/energymis/energymis/internal/verify"
)

func newEngine(t *testing.T, g *graph.Graph, p Params) *Engine {
	t.Helper()
	e, err := New(g, verify.GreedyMIS(g), p)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewRejectsInvalidSet(t *testing.T) {
	g := graph.Path(3)
	bad := []bool{true, true, false} // edge (0,1) inside the set
	if _, err := New(g, bad, DefaultParams()); err == nil {
		t.Fatal("invalid initial set accepted")
	}
}

func TestNewRejectsUnknownRepair(t *testing.T) {
	g := graph.Path(3)
	for _, repair := range []RepairAlgo{-1, 3, 7} {
		_, err := New(g, verify.GreedyMIS(g), Params{Repair: repair})
		if err == nil {
			t.Fatalf("repair protocol %d accepted", int(repair))
		}
		if want := repair.String(); !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %s", err, want)
		}
	}
}

func TestInsertEdgeConflict(t *testing.T) {
	// Path 0-1-2: greedy MIS is {0, 2}. Inserting (0,2) creates a
	// conflict; repair must evict one endpoint and keep the set maximal.
	e := newEngine(t, graph.Path(3), Params{Seed: 1, Repair: RepairLuby, SelfCheck: true})
	bs, err := e.InsertEdge(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if bs.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", bs.Evictions)
	}
	if e.InMIS(0) && e.InMIS(2) {
		t.Fatal("conflict not resolved")
	}
	if !e.HasEdge(0, 2) || e.M() != 3 {
		t.Fatalf("edge not applied: m=%d", e.M())
	}
}

func TestRemoveEdgeUncovers(t *testing.T) {
	// Star with center 0: MIS is {0}. Removing (0,1) leaves node 1
	// isolated and uncovered; it must join.
	e := newEngine(t, graph.Star(5), Params{Seed: 1, SelfCheck: true})
	bs, err := e.RemoveEdge(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !e.InMIS(1) {
		t.Fatal("uncovered node 1 did not join")
	}
	if bs.Joins != 1 || bs.Region != 1 {
		t.Fatalf("joins=%d region=%d, want 1/1", bs.Joins, bs.Region)
	}
}

func TestInsertNode(t *testing.T) {
	e := newEngine(t, graph.Path(4), Params{Seed: 3, SelfCheck: true})
	// Greedy MIS of P4 is {0, 2}. A new node adjacent to member 0 is
	// covered and must stay out.
	id, bs, err := e.InsertNode(0)
	if err != nil {
		t.Fatal(err)
	}
	if id != 4 || e.InMIS(id) || bs.Joins != 0 {
		t.Fatalf("covered insert: id=%d inMIS=%v joins=%d", id, e.InMIS(id), bs.Joins)
	}
	// A new node adjacent only to non-members is uncovered and must join.
	id2, bs2, err := e.InsertNode(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !e.InMIS(id2) || bs2.Joins != 1 {
		t.Fatalf("uncovered insert: inMIS=%v joins=%d", e.InMIS(id2), bs2.Joins)
	}
	// An isolated node always joins.
	id3, _, err := e.InsertNode()
	if err != nil {
		t.Fatal(err)
	}
	if !e.InMIS(id3) {
		t.Fatal("isolated node did not join")
	}
}

func TestRemoveNode(t *testing.T) {
	// Star: removing the member center uncovers every leaf; the leaves
	// form an independent set, so all must join.
	e := newEngine(t, graph.Star(6), Params{Seed: 2, SelfCheck: true})
	bs, err := e.RemoveNode(0)
	if err != nil {
		t.Fatal(err)
	}
	if e.AliveCount() != 5 || e.Alive(0) {
		t.Fatalf("node 0 not removed: alive=%d", e.AliveCount())
	}
	if bs.Joins != 5 {
		t.Fatalf("joins = %d, want 5", bs.Joins)
	}
	// Operations on the dead slot must fail.
	if _, err := e.RemoveNode(0); err == nil {
		t.Fatal("double removal accepted")
	}
	if _, err := e.InsertEdge(0, 1); err == nil {
		t.Fatal("edge to dead slot accepted")
	}
}

func TestNoOpUpdatesAreFree(t *testing.T) {
	e := newEngine(t, graph.Path(4), Params{Seed: 1, SelfCheck: true})
	bs, err := e.Apply([]Update{InsEdge(0, 1), DelEdge(0, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if bs.Rounds != 0 || bs.AwakeRounds != 0 || bs.Woken != 0 {
		t.Fatalf("no-op batch charged: %+v", bs)
	}
}

func TestInvalidUpdates(t *testing.T) {
	e := newEngine(t, graph.Path(4), DefaultParams())
	cases := []Update{
		InsEdge(0, 0),
		InsEdge(0, 99),
		DelEdge(-1, 2),
		DelNode(17),
		InsNode(99),
		{Op: Op(9)},
	}
	for _, up := range cases {
		if _, err := e.Apply([]Update{up}); err == nil {
			t.Fatalf("update %+v accepted", up)
		}
		// A rejected update must leave the engine fully consistent.
		if err := e.Check(); err != nil {
			t.Fatalf("after rejected %+v: %v", up, err)
		}
	}
	if e.N() != 4 {
		t.Fatalf("rejected inserts grew the slot space to %d", e.N())
	}
	// Read accessors answer out-of-range slots like dead ones instead of
	// panicking.
	for _, v := range []int{-1, e.N(), 99} {
		if d := e.Degree(v); d != 0 {
			t.Fatalf("Degree(%d) = %d, want 0", v, d)
		}
		if nb := e.Neighbors(v); nb != nil {
			t.Fatalf("Neighbors(%d) = %v, want nil", v, nb)
		}
		if e.Alive(v) || e.InMIS(v) || e.HasEdge(0, v) {
			t.Fatalf("out-of-range slot %d reads as live", v)
		}
	}
}

func TestInsertNodeBadNeighborLeavesNoTrace(t *testing.T) {
	// Regression: a node insert with an invalid neighbor list must not
	// create the node (or any of its edges) at all — a half-wired node
	// would never be probed and would break maximality forever.
	e := newEngine(t, graph.Path(3), DefaultParams())
	if _, err := e.Apply([]Update{InsNode(1, 99)}); err == nil {
		t.Fatal("invalid neighbor accepted")
	}
	if e.N() != 3 || e.M() != 2 {
		t.Fatalf("partial insert left state: n=%d m=%d", e.N(), e.M())
	}
	if err := e.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestPartialBatchStillRepairs(t *testing.T) {
	// A batch that fails mid-way must repair its applied prefix: the
	// invariant holds even though the caller gets an error.
	e := newEngine(t, graph.Star(5), DefaultParams())
	_, err := e.Apply([]Update{DelEdge(0, 1), InsEdge(2, 2)})
	if err == nil {
		t.Fatal("invalid batch accepted")
	}
	if e.HasEdge(0, 1) {
		t.Fatal("valid prefix not applied")
	}
	if err := e.Check(); err != nil {
		t.Fatalf("invariant broken after failed batch: %v", err)
	}
	// The prefix's cost must be accounted: cumulative stats stay
	// consistent with the per-node totals.
	st := e.Stats()
	if st.Batches != 1 || st.Updates != 1 {
		t.Fatalf("failed batch not accounted: %+v", st)
	}
	var sum int64
	for _, a := range e.AwakePerNode() {
		sum += a
	}
	if sum != st.BootstrapAwake+st.AwakeTotal {
		t.Fatalf("awake totals inconsistent: %d != %d+%d", sum, st.BootstrapAwake, st.AwakeTotal)
	}
}

func TestBatchOverlappingRegions(t *testing.T) {
	// A batch touching one neighborhood runs a single election.
	g := graph.Complete(6)
	e := newEngine(t, g, Params{Seed: 5, SelfCheck: true})
	bs, err := e.Apply([]Update{DelEdge(0, 1), DelEdge(0, 2)})
	if err != nil {
		t.Fatal(err)
	}
	// The greedy member of K6 is node 0; removing its edges to 1 and 2
	// uncovers both, and they are still adjacent to each other: the single
	// batched election decides the pair, and exactly one joins.
	if bs.Joins != 1 {
		t.Fatalf("joins = %d, want 1", bs.Joins)
	}
	if e.Stats().Elections != 1 {
		t.Fatalf("elections = %d, want 1", e.Stats().Elections)
	}
}

func TestRandomChurnBothRepairAlgos(t *testing.T) {
	for _, repair := range []RepairAlgo{RepairLuby, RepairGhaffari} {
		t.Run(repair.String(), func(t *testing.T) {
			g := graph.GNP(200, 10.0/200, 7)
			e := newEngine(t, g, Params{Seed: 11, Repair: repair, SelfCheck: true})
			r := rng.New(99)
			for step := 0; step < 300; step++ {
				u, v := r.Intn(e.N()), r.Intn(e.N())
				if u == v || !e.Alive(u) || !e.Alive(v) {
					continue
				}
				var err error
				if e.HasEdge(u, v) {
					_, err = e.RemoveEdge(u, v)
				} else {
					_, err = e.InsertEdge(u, v)
				}
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
			if e.Stats().Updates == 0 {
				t.Fatal("no updates ran")
			}
		})
	}
}

func TestMixedChurnWithNodeOps(t *testing.T) {
	g := graph.GNP(120, 8.0/120, 3)
	e := newEngine(t, g, Params{Seed: 4, SelfCheck: true})
	r := rng.New(17)
	aliveIDs := func() []int {
		var out []int
		for v := 0; v < e.N(); v++ {
			if e.Alive(v) {
				out = append(out, v)
			}
		}
		return out
	}
	for step := 0; step < 200; step++ {
		ids := aliveIDs()
		switch r.Intn(4) {
		case 0:
			u, v := ids[r.Intn(len(ids))], ids[r.Intn(len(ids))]
			if u != v && !e.HasEdge(u, v) {
				if _, err := e.InsertEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		case 1:
			u := ids[r.Intn(len(ids))]
			if nbs := e.Neighbors(u); len(nbs) > 0 {
				if _, err := e.RemoveEdge(u, int(nbs[r.Intn(len(nbs))])); err != nil {
					t.Fatal(err)
				}
			}
		case 2:
			k := r.Intn(4)
			nbs := make([]int, 0, k)
			for i := 0; i < k; i++ {
				nbs = append(nbs, ids[r.Intn(len(ids))])
			}
			if _, _, err := e.InsertNode(nbs...); err != nil {
				t.Fatal(err)
			}
		case 3:
			if len(ids) > 20 {
				if _, err := e.RemoveNode(ids[r.Intn(len(ids))]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := e.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() ([]bool, Stats) {
		g := graph.GNP(150, 9.0/150, 21)
		e := newEngine(t, g, Params{Seed: 77})
		r := rng.New(5)
		for step := 0; step < 150; step++ {
			u, v := r.Intn(150), r.Intn(150)
			if u == v {
				continue
			}
			if e.HasEdge(u, v) {
				e.RemoveEdge(u, v)
			} else {
				e.InsertEdge(u, v)
			}
		}
		return e.InSet(), e.Stats()
	}
	set1, st1 := run()
	set2, st2 := run()
	if !reflect.DeepEqual(set1, set2) {
		t.Fatal("InSet differs across identical runs")
	}
	if st1 != st2 {
		t.Fatalf("stats differ: %v vs %v", st1, st2)
	}
}

func TestLocality(t *testing.T) {
	// On a long cycle, a single update must wake only a constant-size
	// neighborhood, never the whole ring.
	g := graph.Cycle(1000)
	e := newEngine(t, g, Params{Seed: 9, SelfCheck: true})
	bs, err := e.RemoveEdge(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bs.Woken > 10 {
		t.Fatalf("single update woke %d nodes on a cycle", bs.Woken)
	}
	bs, err = e.InsertEdge(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bs.Woken > 10 {
		t.Fatalf("re-insert woke %d nodes", bs.Woken)
	}
}

func TestNoteBootstrapAndStats(t *testing.T) {
	g := graph.Path(5)
	e := newEngine(t, g, DefaultParams())
	e.NoteBootstrap(BootstrapCost{Rounds: 12, AwakePerNode: []int64{3, 3, 3, 3, 3}, Messages: 40})
	st := e.Stats()
	if st.BootstrapRounds != 12 || st.BootstrapAwake != 15 || st.BootstrapMessages != 40 {
		t.Fatalf("bootstrap stats wrong: %+v", st)
	}
	awake := e.AwakePerNode()
	if awake[0] != 3 {
		t.Fatalf("bootstrap awake not credited: %v", awake)
	}
}

func TestSnapshotCompaction(t *testing.T) {
	e := newEngine(t, graph.Path(5), Params{Seed: 1, SelfCheck: true})
	if _, err := e.RemoveNode(2); err != nil {
		t.Fatal(err)
	}
	g, orig := e.Snapshot()
	if g.N() != 4 || len(orig) != 4 {
		t.Fatalf("snapshot n=%d", g.N())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := verify.Check(g, e.SnapshotSet(orig)); err != nil {
		t.Fatal(err)
	}
}

// TestCheckCatchesStaleMemberCount holds Check to its own recount: a
// live node's kept member count that is one off, in either direction,
// and a dead slot that keeps a count are each reported.
func TestCheckCatchesStaleMemberCount(t *testing.T) {
	e := newEngine(t, graph.Star(5), Params{Seed: 1, SelfCheck: true})
	if _, err := e.RemoveNode(4); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		v     int
		delta int32
		want  string
	}{
		{1, +1, "node 1 has 1 member neighbors, kept count 2"},
		{0, -1, "node 0 has 0 member neighbors, kept count -1"},
		{4, +1, "dead slot 4 keeps member count 1"},
	} {
		e.memberNbrs[c.v] += c.delta
		err := e.Check()
		e.memberNbrs[c.v] -= c.delta
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("count of %d moved by %+d: Check = %v, want %q", c.v, c.delta, err, c.want)
		}
	}
	if err := e.Check(); err != nil {
		t.Fatal(err)
	}
}
