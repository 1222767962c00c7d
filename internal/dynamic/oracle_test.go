package dynamic_test

// Oracles for every repair. They read only the engine's public accessors
// (the package under test is imported like any client's) and share no
// code with the repair: each Apply is held to
//
//	(a) validity: Check passes, and every Neighbors row is strictly
//	    ascending (the row edits' tail fast paths and HasEdge's search
//	    rely on it);
//	(b) locality: every node whose AwakePerNode entry grew lies within two
//	    hops of an update endpoint, in the graph before or after the
//	    window (a naive BFS);
//	(c) stability: every live node whose entry did not grow keeps its
//	    membership;
//	(d) a naive replay of the applied prefix on plain maps — the
//	    structural edits, the eviction rule, the coverage probe and a BFS
//	    component split — which must reproduce Updates, Woken, Evictions,
//	    Region, Components and Joins, the exact set of charged nodes, the
//	    membership of every node outside the region, AwakeRounds as the
//	    ledger's growth, and the repair/detect span's analytic messages
//	    (probes + replies + eviction and join notifications).
//
// The replay cannot predict which region nodes an election picks, so it
// reads the joiners from the engine's set after the window; everything
// else it derives from the state before the window and the updates.

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"github.com/energymis/energymis/internal/dynamic"
	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/obs"
	"github.com/energymis/energymis/internal/rng"
	"github.com/energymis/energymis/internal/stream"
	"github.com/energymis/energymis/internal/verify"
)

// view is a plain-map copy of an engine's observable state.
type view struct {
	n        int                  // node slots, dead ones included
	adj      map[int]map[int]bool // live nodes only
	member   map[int]bool
	awake    []int64 // AwakePerNode
	unsorted []int   // live nodes whose Neighbors row is not strictly ascending
}

func capture(e *dynamic.Engine) view {
	s := view{n: e.N(), adj: map[int]map[int]bool{}, member: map[int]bool{}, awake: e.AwakePerNode()}
	for v := 0; v < s.n; v++ {
		if !e.Alive(v) {
			continue
		}
		nb := e.Neighbors(v)
		for i := 1; i < len(nb); i++ {
			if nb[i-1] >= nb[i] {
				s.unsorted = append(s.unsorted, v)
				break
			}
		}
		row := map[int]bool{}
		for _, u := range nb {
			row[int(u)] = true
		}
		s.adj[v] = row
		if e.InMIS(v) {
			s.member[v] = true
		}
	}
	return s
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// endpoints lists the endpoints of the applied updates: both ends of an
// edge update, a removed node, and an inserted node with its neighbors
// (the new edges' endpoints). An inserted node takes the next slot.
func endpoints(before view, applied []dynamic.Update) []int {
	next := before.n
	var out []int
	for _, up := range applied {
		switch up.Op {
		case dynamic.OpInsertEdge, dynamic.OpRemoveEdge:
			out = append(out, up.U, up.V)
		case dynamic.OpRemoveNode:
			out = append(out, up.U)
		case dynamic.OpInsertNode:
			out = append(out, next)
			out = append(out, up.Neighbors...)
			next++
		}
	}
	return out
}

// within2 returns the nodes at most two hops from a source in adj.
func within2(adj map[int]map[int]bool, sources []int) map[int]bool {
	dist := map[int]int{}
	var queue []int
	for _, s := range sources {
		if _, ok := adj[s]; ok {
			if _, seen := dist[s]; !seen {
				dist[s] = 0
				queue = append(queue, s)
			}
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if dist[v] == 2 {
			continue
		}
		for u := range adj[v] {
			if _, seen := dist[u]; !seen {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	near := map[int]bool{}
	for v := range dist {
		near[v] = true
	}
	return near
}

// replay re-derives one window's repair from the state before it.
type replay struct {
	g            view // evolving: the graph after the window, membership after eviction
	woken, dirty map[int]bool
	evictions    int
	region       []int   // uncovered after the probe, ascending
	comps        [][]int // connected components of the region's induced subgraph
	msgs         int64   // probes + replies + eviction and join notifications
}

func newReplay(before view) *replay {
	g := view{n: before.n, adj: map[int]map[int]bool{}, member: maps.Clone(before.member)}
	for v, row := range before.adj {
		g.adj[v] = maps.Clone(row)
	}
	return &replay{g: g, woken: map[int]bool{}, dirty: map[int]bool{}}
}

// edit applies one update's structural change and marks what it wakes
// and what must re-check the invariant; it reports whether the update is
// valid.
func (r *replay) edit(up dynamic.Update) bool {
	live := func(v int) bool { _, ok := r.g.adj[v]; return ok }
	switch up.Op {
	case dynamic.OpInsertEdge, dynamic.OpRemoveEdge:
		u, v := up.U, up.V
		if u == v || !live(u) || !live(v) {
			return false
		}
		if r.g.adj[u][v] == (up.Op == dynamic.OpInsertEdge) {
			return true // no-op: the edge is already there, or already gone
		}
		if up.Op == dynamic.OpInsertEdge {
			r.g.adj[u][v], r.g.adj[v][u] = true, true
		} else {
			delete(r.g.adj[u], v)
			delete(r.g.adj[v], u)
		}
		r.woken[u], r.woken[v], r.dirty[u], r.dirty[v] = true, true, true, true
	case dynamic.OpInsertNode:
		id := r.g.n
		for _, nb := range up.Neighbors {
			if nb == id || !live(nb) {
				return false
			}
		}
		r.g.n++
		r.g.adj[id] = map[int]bool{}
		for _, nb := range up.Neighbors {
			r.g.adj[id][nb], r.g.adj[nb][id] = true, true
			r.woken[nb] = true
		}
		r.woken[id], r.dirty[id] = true, true
	case dynamic.OpRemoveNode:
		v := up.U
		if !live(v) {
			return false
		}
		for u := range r.g.adj[v] {
			delete(r.g.adj[u], v)
			r.woken[u] = true
			if r.g.member[v] {
				r.dirty[u] = true // u may have lost its only member neighbor
			}
		}
		delete(r.g.adj, v)
		delete(r.g.member, v)
		delete(r.woken, v)
		delete(r.dirty, v)
	default:
		return false
	}
	return true
}

// evict resolves member conflicts: each dirty member, in ascending order,
// meets its member neighbors smallest first, and the endpoint of lower
// degree leaves (ties: the higher ID), notifying its neighborhood.
func (r *replay) evict() {
	for _, v := range sortedKeys(r.dirty) {
		for r.g.member[v] {
			conflict := -1
			for u := range r.g.adj[v] {
				if r.g.member[u] && (conflict < 0 || u < conflict) {
					conflict = u
				}
			}
			if conflict < 0 {
				break
			}
			loser := v
			du, dv := len(r.g.adj[conflict]), len(r.g.adj[v])
			if du < dv || (du == dv && conflict > v) {
				loser = conflict
			}
			delete(r.g.member, loser)
			r.evictions++
			r.msgs += int64(len(r.g.adj[loser]))
			r.woken[loser], r.dirty[loser] = true, true
			for u := range r.g.adj[loser] {
				r.woken[u], r.dirty[u] = true, true
			}
		}
	}
}

// probe: every dirty non-member asks its neighborhood (which wakes) for a
// member; members reply. The unanswered form the region.
func (r *replay) probe() {
	for _, v := range sortedKeys(r.dirty) {
		if r.g.member[v] {
			continue
		}
		r.msgs += int64(len(r.g.adj[v]))
		covered := false
		for u := range r.g.adj[v] {
			r.woken[u] = true
			if r.g.member[u] {
				covered = true
				r.msgs++
			}
		}
		if !covered {
			r.region = append(r.region, v)
		}
	}
}

// split finds the region's components by BFS.
func (r *replay) split() {
	in := map[int]bool{}
	for _, v := range r.region {
		in[v] = true
	}
	seen := map[int]bool{}
	for _, s := range r.region {
		if seen[s] {
			continue
		}
		seen[s] = true
		comp := []int{s}
		for i := 0; i < len(comp); i++ {
			for u := range r.g.adj[comp[i]] {
				if in[u] && !seen[u] {
					seen[u] = true
					comp = append(comp, u)
				}
			}
		}
		r.comps = append(r.comps, comp)
	}
}

// spanLog records the phase spans the engine emits.
type spanLog struct{ ends []obs.PhaseStats }

func (s *spanLog) PhaseStart(string)         {}
func (s *spanLog) Round(obs.RoundStats)      {}
func (s *spanLog) PhaseEnd(p obs.PhaseStats) { s.ends = append(s.ends, p) }

// checked is an engine whose every Apply is held to the oracles.
type checked struct {
	e     *dynamic.Engine
	spans *spanLog
	// multi counts the multi-node components elected so far, so a test
	// can tell that its workload reached the election engines.
	multi int
}

// newChecked wraps the greedy MIS of g; p.Tracer, if set, still receives
// every event.
func newChecked(tb testing.TB, g *graph.Graph, p dynamic.Params) *checked {
	tb.Helper()
	log := &spanLog{}
	p.Tracer = obs.Multi(log, p.Tracer)
	e, err := dynamic.New(g, verify.GreedyMIS(g), p)
	if err != nil {
		tb.Fatal(err)
	}
	return &checked{e: e, spans: log}
}

// oracleLog collects the discrepancies of one Apply per oracle.
type oracleLog map[string][]string

func (o oracleLog) add(oracle, format string, args ...any) {
	if len(o[oracle]) < 4 {
		o[oracle] = append(o[oracle], fmt.Sprintf(format, args...))
	}
}

func (o oracleLog) String() string {
	var b strings.Builder
	for _, k := range sortedKeys(o) {
		fmt.Fprintf(&b, "\n  %s: %s", k, strings.Join(o[k], "; "))
	}
	return b.String()
}

// apply runs one Apply and holds it to oracles (a)–(d). A rejected update
// is not a failure: the oracles then cover the applied prefix, and the
// error is returned.
func (c *checked) apply(tb testing.TB, batch []dynamic.Update) (dynamic.BatchStats, error) {
	tb.Helper()
	before := capture(c.e)
	c.spans.ends = c.spans.ends[:0]
	bs, err := c.e.Apply(batch)
	after := capture(c.e)
	fails := oracleLog{}

	// (a) Validity.
	if cerr := c.e.Check(); cerr != nil {
		fails.add("(a) validity", "%v", cerr)
	}
	if bs.Violations != 0 {
		fails.add("(a) validity", "%d CONGEST violations", bs.Violations)
	}
	for _, v := range after.unsorted {
		fails.add("(a) validity", "Neighbors(%d) = %v is not strictly ascending", v, c.e.Neighbors(v))
	}

	// (d), the applied prefix: the replay accepts exactly the updates
	// the engine applied, and rejects the one it refused.
	r := newReplay(before)
	valid := 0
	for valid < len(batch) && r.edit(batch[valid]) {
		valid++
	}
	if bs.Updates != valid || (err != nil) != (valid < len(batch)) {
		fails.add("(d) replay", "applied %d of %d (err %v), replay accepts %d", bs.Updates, len(batch), err, valid)
	}
	applied := batch[:min(bs.Updates, len(batch))]

	grew := map[int]int64{}
	for v, a := range after.awake {
		var b int64
		if v < len(before.awake) {
			b = before.awake[v]
		}
		if a != b {
			grew[v] = a - b
		}
	}

	// (b) Locality.
	ends := endpoints(before, applied)
	nearBefore, nearAfter := within2(before.adj, ends), within2(after.adj, ends)
	for _, v := range sortedKeys(grew) {
		if !nearBefore[v] && !nearAfter[v] {
			fails.add("(b) locality", "node %d charged %d rounds, more than 2 hops from every endpoint", v, grew[v])
		}
	}

	// (c) Stability.
	for v := range after.adj {
		if grew[v] == 0 && after.member[v] != before.member[v] {
			fails.add("(c) stability", "node %d changed membership %v -> %v without waking", v, before.member[v], after.member[v])
		}
	}

	// (d) Naive replay.
	c.checkReplay(r, before, after, bs, grew, fails)

	if len(fails) > 0 {
		tb.Fatalf("Apply(%v): oracles failed (BatchStats %+v):%s", batch, bs, fails)
	}
	return bs, err
}

func (c *checked) checkReplay(r *replay, before, after view, bs dynamic.BatchStats, grew map[int]int64, fails oracleLog) {
	const d = "(d) replay"
	if r.g.n != after.n || len(r.g.adj) != len(after.adj) {
		fails.add(d, "graph: replay has %d slots, %d live; engine %d, %d", r.g.n, len(r.g.adj), after.n, len(after.adj))
	}
	for v, row := range after.adj {
		if len(row) != len(r.g.adj[v]) {
			fails.add(d, "graph: node %d has degree %d, replay %d", v, len(row), len(r.g.adj[v]))
		}
		for u := range row {
			if !r.g.adj[v][u] {
				fails.add(d, "graph: edge (%d,%d) missing from the replay", v, u)
			}
		}
	}

	r.evict()
	r.probe()
	r.split()
	inRegion := map[int]bool{}
	for _, v := range r.region {
		inRegion[v] = true
	}
	// Outside the region, the set after the window is the set after
	// eviction; inside it, the engine's election picked the joiners.
	joins := 0
	for v := range after.adj {
		switch {
		case inRegion[v] && after.member[v]:
			joins++
			r.msgs += int64(len(after.adj[v]))
			for u := range after.adj[v] {
				r.woken[u] = true
			}
		case !inRegion[v] && after.member[v] != r.g.member[v]:
			fails.add(d, "node %d: member %v, replay %v after eviction", v, after.member[v], r.g.member[v])
		}
	}
	if bs.Evictions != r.evictions || bs.Region != len(r.region) ||
		bs.Components != len(r.comps) || bs.Joins != joins || bs.Woken != len(r.woken) {
		fails.add(d, "evictions/region/components/joins/woken = %d/%d/%d/%d/%d, replay %d/%d/%d/%d/%d",
			bs.Evictions, bs.Region, bs.Components, bs.Joins, bs.Woken,
			r.evictions, len(r.region), len(r.comps), joins, len(r.woken))
	}

	// Charged nodes: exactly the woken ones. The detection round charges
	// each one round, a singleton's decision one more, and an election
	// at least one more to every node of its component.
	single, elected := map[int]bool{}, map[int]bool{}
	for _, comp := range r.comps {
		if len(comp) == 1 {
			single[comp[0]] = true
			continue
		}
		c.multi++
		for _, v := range comp {
			elected[v] = true
		}
	}
	var growth int64
	for v, g := range grew {
		growth += g
		if !r.woken[v] {
			fails.add(d, "node %d charged %d rounds but never woke", v, g)
		}
	}
	for _, v := range sortedKeys(r.woken) {
		switch g := grew[v]; {
		case elected[v] && g < 2:
			fails.add(d, "node %d of an elected component charged %d rounds, want >= 2", v, g)
		case single[v] && g != 2:
			fails.add(d, "singleton %d charged %d rounds, want 2", v, g)
		case !elected[v] && !single[v] && g != 1:
			fails.add(d, "node %d charged %d rounds, want 1", v, g)
		}
	}
	if bs.AwakeRounds != growth {
		fails.add(d, "AwakeRounds %d, ledger grew by %d", bs.AwakeRounds, growth)
	}

	// Spans: one detection round carrying the analytic messages, one
	// singleton span, and the elections' engine messages.
	var detect, singleton []obs.PhaseStats
	var electMsgs int64
	for _, p := range c.spans.ends {
		switch p.Name {
		case "repair/detect":
			detect = append(detect, p)
		case "repair/singleton":
			singleton = append(singleton, p)
		default:
			electMsgs += p.MsgsSent
		}
	}
	if len(r.woken) == 0 {
		if len(c.spans.ends) != 0 || bs.Rounds != 0 || bs.Messages != 0 {
			fails.add(d, "nothing woke, yet %d spans, %d rounds, %d messages", len(c.spans.ends), bs.Rounds, bs.Messages)
		}
		return
	}
	if len(detect) != 1 {
		fails.add(d, "%d repair/detect spans, want 1", len(detect))
	} else if p := detect[0]; p.MsgsSent != r.msgs || p.Awake != int64(len(r.woken)) || p.Rounds != 1 {
		fails.add(d, "repair/detect: %d messages, %d awake; replay %d probes+replies+notifications, %d woken",
			p.MsgsSent, p.Awake, r.msgs, len(r.woken))
	}
	if singles := len(single); len(singleton) != min(singles, 1) ||
		(singles > 0 && (singleton[0].Awake != int64(singles) || singleton[0].Rounds != singles)) {
		fails.add(d, "repair/singleton spans %+v, replay %d singletons", singleton, singles)
	}
	if bs.Messages != r.msgs+electMsgs {
		fails.add(d, "Messages %d, replay %d analytic + %d election", bs.Messages, r.msgs, electMsgs)
	}
}

// mixedBatch derives a deterministic update batch from the current state
// of e: edge toggles, node inserts and removals, and insert-then-remove
// pairs of the same edge.
func mixedBatch(e *dynamic.Engine, r *rng.Stream, size int) []dynamic.Update {
	var ids []int
	for v := 0; v < e.N(); v++ {
		if e.Alive(v) {
			ids = append(ids, v)
		}
	}
	batch := make([]dynamic.Update, 0, size)
	for len(batch) < size {
		switch r.Intn(6) {
		case 0, 1, 2: // edge toggle
			u, v := ids[r.Intn(len(ids))], ids[r.Intn(len(ids))]
			if u == v {
				continue
			}
			if e.HasEdge(u, v) {
				batch = append(batch, dynamic.DelEdge(u, v))
			} else {
				batch = append(batch, dynamic.InsEdge(u, v))
			}
		case 3: // node insert (neighbors among current ids)
			k := r.Intn(4)
			nbs := make([]int, 0, k)
			for i := 0; i < k; i++ {
				nbs = append(nbs, ids[r.Intn(len(ids))])
			}
			batch = append(batch, dynamic.InsNode(nbs...))
		case 4: // node removal (keep the graph from draining)
			if len(ids) > 40 {
				i := r.Intn(len(ids))
				batch = append(batch, dynamic.DelNode(ids[i]))
				// Drop the node so a later update in this batch cannot target it.
				ids = append(ids[:i], ids[i+1:]...)
			}
		case 5: // duplicate/no-op pressure
			u, v := ids[r.Intn(len(ids))], ids[r.Intn(len(ids))]
			if u != v && !e.HasEdge(u, v) {
				batch = append(batch, dynamic.InsEdge(u, v), dynamic.DelEdge(u, v))
			}
		}
	}
	return batch
}

// TestOraclesMixedWindows holds every Apply of mixed churn on GNP —
// edge toggles, node inserts and removals, self-canceling pairs — to the
// oracles, for both repair protocols, in windows of 1, 2, 8 and 16
// updates (about 240 updates in all per window size). Its uncovered
// regions split into singletons only; TestOraclesAcrossStreams and
// FuzzApplyOracles reach the election engines.
func TestOraclesMixedWindows(t *testing.T) {
	for _, repair := range []dynamic.RepairAlgo{dynamic.RepairLuby, dynamic.RepairGhaffari} {
		for _, w := range []int{1, 2, 8, 16} {
			t.Run(fmt.Sprintf("%s/w%d", repair, w), func(t *testing.T) {
				g := graph.GNP(300, 12.0/300, 42)
				c := newChecked(t, g, dynamic.Params{Seed: 1234, Repair: repair})
				r := rng.New(7)
				for step := 0; step < 240/w; step++ {
					if _, err := c.apply(t, mixedBatch(c.e, r, w)); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
				if c.e.Stats().Evictions == 0 {
					t.Fatal("no eviction: the conflict rule is not exercised")
				}
			})
		}
	}
}

// TestOraclesAcrossStreams holds every Apply of the three benchmark
// stream shapes to the oracles, for both repair protocols: uniform churn
// on RGG and hub attacks on BA, where uncovered regions reliably split
// into multi-node components, and a sliding window over an edgeless
// universe.
func TestOraclesAcrossStreams(t *testing.T) {
	churn := graph.RGG(400, 12, 7)
	hub := graph.BarabasiAlbert(300, 4, 7)
	cases := []struct {
		name  string
		g     *graph.Graph
		trace [][]dynamic.Update
	}{
		{"churn", churn, stream.UniformChurn(churn, 50, 16, 17)},
		{"window", graph.GNP(300, 0, 7), stream.SlidingWindow(300, 40, 120, 17)},
		{"hub", hub, stream.HubAttack(hub, 30, 17)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, repair := range []dynamic.RepairAlgo{dynamic.RepairLuby, dynamic.RepairGhaffari} {
				t.Run(repair.String(), func(t *testing.T) {
					c := newChecked(t, tc.g, dynamic.Params{Seed: 23, Repair: repair})
					for i, batch := range tc.trace {
						if _, err := c.apply(t, batch); err != nil {
							t.Fatalf("batch %d: %v", i, err)
						}
					}
					if tc.name != "window" && c.multi == 0 {
						t.Fatal("no multi-node component was elected; the partition and merge are not exercised")
					}
				})
			}
		})
	}
}

// TestOraclesRowPastSlack grows one adjacency row of New's arena past its
// slack, one edge per Apply, while the rows on either side of it in the
// arena stay live, and holds every Apply to the oracles. An insert that
// wrote past its row's capacity would overwrite the next row, which (a)
// and the replay's graph comparison (d) both see. The edits hit the
// row's head, middle and tail, and a new node's edges land at the tail
// of its neighbors' rows.
func TestOraclesRowPastSlack(t *testing.T) {
	const v = 20 // rows 19 and 21 are its arena neighbors
	c := newChecked(t, graph.Path(40), dynamic.Params{Seed: 5})
	var grown []int
	for i := 0; len(grown) < dynamic.RowSlack+3; i++ {
		grown = append(grown, 30+i, 10+i) // alternately the tail and the head
	}
	edits := make([][]dynamic.Update, 0, len(grown)+6)
	for _, u := range grown {
		edits = append(edits, []dynamic.Update{dynamic.InsEdge(v, u)})
	}
	edits = append(edits,
		[]dynamic.Update{dynamic.DelEdge(v, 33)},     // tail
		[]dynamic.Update{dynamic.DelEdge(v, 12)},     // middle
		[]dynamic.Update{dynamic.DelEdge(v, 10)},     // head
		[]dynamic.Update{dynamic.InsNode(19, v, 21)}, // node 40
		[]dynamic.Update{dynamic.InsEdge(40, 39)},
		[]dynamic.Update{dynamic.DelNode(40)},
	)
	for i, batch := range edits {
		if _, err := c.apply(t, batch); err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		if i == dynamic.RowSlack && c.e.Degree(v) != 2+dynamic.RowSlack+1 {
			t.Fatalf("degree %d after %d inserts: the row did not outgrow its slack", c.e.Degree(v), i+1)
		}
	}
	for _, u := range []int{19, 21} {
		if c.e.Degree(u) != 2 || !c.e.HasEdge(u, u-1) || !c.e.HasEdge(u, u+1) {
			t.Fatalf("arena neighbor %d: row %v, want [%d %d]", u, c.e.Neighbors(u), u-1, u+1)
		}
	}
}
