package dynamic

import (
	"fmt"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/obs"
	"github.com/energymis/energymis/internal/sim"
	"github.com/energymis/energymis/internal/verify"
)

// Op identifies the kind of a topology update.
type Op uint8

// Update operations.
const (
	// OpInsertEdge inserts the undirected edge {U, V}. Inserting an
	// existing edge is a no-op.
	OpInsertEdge Op = iota + 1
	// OpRemoveEdge removes the edge {U, V}. Removing a missing edge is a
	// no-op.
	OpRemoveEdge
	// OpInsertNode creates a new node adjacent to Neighbors. The new node
	// is assigned the next free slot index (Engine.N() at application
	// time); U and V are ignored.
	OpInsertNode
	// OpRemoveNode deletes node U and all its incident edges.
	OpRemoveNode
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpInsertEdge:
		return "+edge"
	case OpRemoveEdge:
		return "-edge"
	case OpInsertNode:
		return "+node"
	case OpRemoveNode:
		return "-node"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Update is one topology change.
type Update struct {
	Op   Op
	U, V int
	// Neighbors lists the initial edges of an OpInsertNode update.
	Neighbors []int
}

// InsEdge returns an edge-insertion update.
func InsEdge(u, v int) Update { return Update{Op: OpInsertEdge, U: u, V: v} }

// DelEdge returns an edge-removal update.
func DelEdge(u, v int) Update { return Update{Op: OpRemoveEdge, U: u, V: v} }

// InsNode returns a node-insertion update.
func InsNode(neighbors ...int) Update { return Update{Op: OpInsertNode, Neighbors: neighbors} }

// DelNode returns a node-removal update.
func DelNode(v int) Update { return Update{Op: OpRemoveNode, U: v} }

// RepairAlgo selects the localized re-election protocol.
type RepairAlgo int

// Repair protocols.
const (
	// RepairLuby re-elects with Luby's algorithm on the affected induced
	// subgraph (the default: simple, always terminates).
	RepairLuby RepairAlgo = iota + 1
	// RepairGhaffari runs Ghaffari's desire-level dynamics for O(log |U|)
	// rounds and finishes any stragglers with Luby — cheaper on large
	// regions, matching the paper's shattering machinery.
	RepairGhaffari
)

// String implements fmt.Stringer.
func (a RepairAlgo) String() string {
	switch a {
	case RepairLuby:
		return "luby"
	case RepairGhaffari:
		return "ghaffari"
	default:
		return fmt.Sprintf("RepairAlgo(%d)", int(a))
	}
}

// Params configures the engine. The zero value is not valid; use
// DefaultParams.
type Params struct {
	// Seed drives all repair randomness. Runs are deterministic in
	// (initial graph, initial set, update sequence, Seed).
	Seed uint64
	// Repair selects the re-election protocol.
	Repair RepairAlgo
	// SelfCheck validates the full MIS invariant after every batch
	// (O(n+m); for tests).
	SelfCheck bool
	// Tracer, when non-nil, receives phase spans for every repair
	// (election spans from the pipeline, a synthetic "repair/singleton"
	// span aggregating the analytic singleton-component decisions, plus
	// one synthetic one-round "repair/detect" span per batch) and
	// per-round events from the election engines. Component elections
	// trace straight into it, in ascending component order, so the trace
	// is deterministic up to wall times. When an election fails, the
	// events the batch's elections emitted before the failure stay in the
	// trace; the engine's set is not a valid MIS after a repair error
	// anyway.
	Tracer obs.Tracer
}

// DefaultParams returns the default engine configuration.
func DefaultParams() Params {
	return Params{Repair: RepairLuby}
}

// Engine maintains a maximal independent set of a mutable graph. Node
// slots are dense integers; removed slots stay dead and are never reused,
// and inserted nodes take the next slot index.
type Engine struct {
	p Params

	adj        [][]int32 // sorted adjacency per slot; nil for dead slots
	alive      []bool
	aliveCount int
	edges      int

	inSet  []bool
	inSetW []uint64 // word-packed mirror of inSet (bit v of word v>>6)
	// memberNbrs counts each live slot's neighbors in the set (0 for dead
	// slots), so a coverage probe reads its replies without a row walk.
	memberNbrs []int32
	awake      []int64 // cumulative awake rounds per slot (repair + bootstrap)

	stats   Stats
	batchNo uint64

	// Repair resources: the pooled engine buffers every election runs on
	// and the region scratch. simMsgs counts the engine messages of the
	// current batch's elections, so the analytic detection-round messages
	// can be split out for the trace.
	mem     sim.Mem
	scr     scratch
	simMsgs int64

	// Component machinery: the region partitioner, per-component
	// election state, and the reusable work list of non-singleton
	// component ordinals (partition.go).
	part  partitioner
	comps []compRun
	work  []int32

	perf Perf
}

// Perf reports engine-internal performance counters. Unlike Stats these
// measure the implementation, not the distributed protocol.
type Perf struct {
	// SweepWords counts dirty/woken touched words walked by repair sweeps.
	SweepWords int64
}

// Perf returns the engine-internal performance counters.
func (e *Engine) Perf() Perf { return e.perf }

// New wraps an existing valid MIS of g in a dynamic engine. The inSet
// slice is copied. A zero Repair selects RepairLuby; any other value
// outside the Repair protocols is an error. Use NoteBootstrap to credit
// the cost of computing the initial set.
func New(g *graph.Graph, inSet []bool, p Params) (*Engine, error) {
	switch p.Repair {
	case 0:
		p.Repair = RepairLuby
	case RepairLuby, RepairGhaffari:
	default:
		return nil, fmt.Errorf("dynamic: unknown repair protocol %v", p.Repair)
	}
	if err := verify.Check(g, inSet); err != nil {
		return nil, fmt.Errorf("dynamic: initial set invalid: %w", err)
	}
	n := g.N()
	e := &Engine{
		p:          p,
		adj:        make([][]int32, n),
		alive:      make([]bool, n),
		aliveCount: n,
		edges:      g.M(),
		inSet:      make([]bool, n),
		inSetW:     make([]uint64, (n+63)>>6),
		memberNbrs: make([]int32, n),
		awake:      make([]int64, n),
	}
	copy(e.inSet, inSet)
	for v, in := range e.inSet {
		if in {
			e.inSetW[v>>6] |= 1 << (uint(v) & 63)
			for _, u := range g.Neighbors(v) {
				e.memberNbrs[u]++
			}
		}
	}
	// One arena allocation backs every initial adjacency row, each
	// followed by rowSlack free slots, so an insert rarely reallocates.
	// Every row's capacity ends where the next row begins: an insert that
	// outgrows its slack reallocates just that row and leaves its arena
	// neighbors intact.
	arena := make([]int32, 2*g.M()+rowSlack*n)
	off := 0
	for v := 0; v < n; v++ {
		e.alive[v] = true
		nb := g.Neighbors(v)
		end := off + len(nb) + rowSlack
		e.adj[v] = append(arena[off:off:end], nb...)
		off = end
	}
	return e, nil
}

// rowSlack is the number of free slots behind each initial adjacency row
// in New's arena. Against 4 on misbench's dyn-churn (2-core x86-64, Go
// 1.24), 2 made repairs 2.3% slower and held 1.4 MB more live heap, as
// more rows outgrew their slack; 8 was within the runs' spread and held
// 1.0 MB more.
const rowSlack = 4

// setMember and clearMember are the only writers of set membership: they
// keep the bool vector and its word-packed mirror in lockstep, so the
// repair sweeps can test adjacency keys and AND dirty words against
// inSetW, and move the member count of every neighbor in v's row by one.
// clearMember requires v to be a member.
func (e *Engine) setMember(v int32) {
	e.inSet[v] = true
	e.inSetW[v>>6] |= 1 << (uint32(v) & 63)
	for _, u := range e.adj[v] {
		e.memberNbrs[u]++
	}
}

func (e *Engine) clearMember(v int32) {
	e.inSet[v] = false
	e.inSetW[v>>6] &^= 1 << (uint32(v) & 63)
	for _, u := range e.adj[v] {
		e.memberNbrs[u]--
	}
}

// memberBit returns 1 if v is in the set and 0 otherwise, read from the
// word-packed mirror (an edge edit's member-count change).
func (e *Engine) memberBit(v int32) int32 {
	return int32(e.inSetW[v>>6] >> (uint32(v) & 63) & 1)
}

// growMembership extends inSet/inSetW/memberNbrs/awake for one appended
// node slot.
func (e *Engine) growMembership() {
	e.inSet = append(e.inSet, false)
	e.memberNbrs = append(e.memberNbrs, 0)
	e.awake = append(e.awake, 0)
	if len(e.inSet) > len(e.inSetW)<<6 {
		e.inSetW = append(e.inSetW, 0)
	}
}

// NoteBootstrap credits the cost of the static run that produced the
// initial set, so cumulative statistics cover the whole lifetime.
func (e *Engine) NoteBootstrap(c BootstrapCost) {
	e.stats.BootstrapRounds = c.Rounds
	e.stats.BootstrapMessages = c.Messages
	e.stats.BootstrapMsgsDropped = c.MsgsDropped
	e.stats.BootstrapBits = c.Bits
	e.stats.BootstrapBitsMax = c.BitsMax
	e.stats.BootstrapViolations = c.Violations
	for v, a := range c.AwakePerNode {
		if v < len(e.awake) {
			e.awake[v] += a
			e.stats.BootstrapAwake += a
		}
	}
}

// N returns the number of node slots (alive + dead).
func (e *Engine) N() int { return len(e.adj) }

// AliveCount returns the number of alive nodes.
func (e *Engine) AliveCount() int { return e.aliveCount }

// M returns the number of edges.
func (e *Engine) M() int { return e.edges }

// Alive reports whether slot v holds a live node.
func (e *Engine) Alive(v int) bool { return v >= 0 && v < len(e.alive) && e.alive[v] }

// InMIS reports whether node v is currently in the maintained set.
func (e *Engine) InMIS(v int) bool { return v >= 0 && v < len(e.inSet) && e.inSet[v] }

// InSet returns a copy of the membership vector, indexed by slot. Dead
// slots are false.
func (e *Engine) InSet() []bool {
	out := make([]bool, len(e.inSet))
	copy(out, e.inSet)
	return out
}

// Degree returns the current degree of node v (0 for dead or out-of-range
// slots).
func (e *Engine) Degree(v int) int {
	if v < 0 || v >= len(e.adj) {
		return 0
	}
	return len(e.adj[v])
}

// Neighbors returns a copy of v's sorted adjacency list (nil for dead or
// out-of-range slots).
func (e *Engine) Neighbors(v int) []int32 {
	if v < 0 || v >= len(e.adj) {
		return nil
	}
	return append([]int32(nil), e.adj[v]...)
}

// HasEdge reports whether {u, v} is currently an edge.
func (e *Engine) HasEdge(u, v int) bool {
	if !e.Alive(u) || !e.Alive(v) {
		return false
	}
	return containsSorted(e.adj[u], int32(v))
}

// AwakePerNode returns a copy of the cumulative per-slot awake rounds
// (bootstrap plus all repairs).
func (e *Engine) AwakePerNode() []int64 {
	out := make([]int64, len(e.awake))
	copy(out, e.awake)
	return out
}

// Stats returns the cumulative statistics.
func (e *Engine) Stats() Stats { return e.stats }

// Snapshot builds an immutable compacted graph of the alive nodes. The
// second return maps snapshot index i to the engine slot orig[i].
func (e *Engine) Snapshot() (*graph.Graph, []int32) {
	orig := make([]int32, 0, e.aliveCount)
	local := make([]int32, len(e.adj))
	for v := range e.adj {
		if e.alive[v] {
			local[v] = int32(len(orig))
			orig = append(orig, int32(v))
		}
	}
	b := graph.NewBuilder(len(orig))
	for i, v := range orig {
		for _, u := range e.adj[v] {
			if u > v {
				b.AddEdge(i, int(local[u]))
			}
		}
	}
	return b.Build(), orig
}

// SnapshotSet returns the membership vector aligned with Snapshot's
// compacted node indexing.
func (e *Engine) SnapshotSet(orig []int32) []bool {
	out := make([]bool, len(orig))
	for i, v := range orig {
		out[i] = e.inSet[v]
	}
	return out
}

// Check validates the full maintained invariant: the current set is a
// maximal independent set of the current graph, no dead slot is a
// member, and every slot's kept member count equals the members its row
// holds (0 for a dead slot), counted here afresh. It scans the live
// adjacency directly — O(n+m), no allocation — so it is cheap enough to
// run after every update in tests.
func (e *Engine) Check() error {
	for v := range e.adj {
		if !e.alive[v] {
			if e.inSet[v] {
				return fmt.Errorf("dynamic: dead slot %d in set", v)
			}
			if e.memberNbrs[v] != 0 {
				return fmt.Errorf("dynamic: dead slot %d keeps member count %d", v, e.memberNbrs[v])
			}
			continue
		}
		members, first := int32(0), int32(-1)
		for _, u := range e.adj[v] {
			if e.inSet[u] {
				if members == 0 {
					first = u
				}
				members++
			}
		}
		if members != e.memberNbrs[v] {
			return fmt.Errorf("dynamic: node %d has %d member neighbors, kept count %d", v, members, e.memberNbrs[v])
		}
		if e.inSet[v] && members > 0 {
			return fmt.Errorf("dynamic: not independent: edge (%d,%d) inside set", v, first)
		}
		if !e.inSet[v] && members == 0 {
			return fmt.Errorf("dynamic: not maximal: node %d uncovered", v)
		}
	}
	return nil
}

// InsertEdge applies a single edge insertion and repairs the set.
func (e *Engine) InsertEdge(u, v int) (BatchStats, error) {
	return e.Apply([]Update{InsEdge(u, v)})
}

// RemoveEdge applies a single edge removal and repairs the set.
func (e *Engine) RemoveEdge(u, v int) (BatchStats, error) {
	return e.Apply([]Update{DelEdge(u, v)})
}

// InsertNode adds a node adjacent to neighbors, repairs the set, and
// returns the new node's slot index.
func (e *Engine) InsertNode(neighbors ...int) (int, BatchStats, error) {
	id := len(e.adj)
	bs, err := e.Apply([]Update{InsNode(neighbors...)})
	return id, bs, err
}

// RemoveNode deletes node v and repairs the set.
func (e *Engine) RemoveNode(v int) (BatchStats, error) {
	return e.Apply([]Update{DelNode(v)})
}

// Apply applies a batch of updates atomically: all structural changes
// first, then a single localized repair covering every affected region.
// Batching amortizes the repair — overlapping regions are re-elected once.
func (e *Engine) Apply(batch []Update) (BatchStats, error) {
	st := e.scr.begin(len(e.adj))
	var bs BatchStats
	applied := 0
	var applyErr error
	for i := range batch {
		if err := e.applyStructural(&batch[i], len(batch)-i, st); err != nil {
			// Repair the applied prefix below so the invariant holds even
			// when the caller passed an invalid update.
			applyErr = fmt.Errorf("dynamic: update %d (%s): %w", i, batch[i].Op, err)
			break
		}
		applied++
	}
	bs.Updates = applied
	e.simMsgs = 0
	if err := e.repairBatch(st, &bs); err != nil {
		return bs, err
	}

	e.accumulate(&bs, applied)

	if applyErr != nil {
		return bs, applyErr
	}
	if e.p.SelfCheck {
		if err := e.Check(); err != nil {
			return bs, err
		}
	}
	return bs, nil
}

// accumulate folds one repaired batch into the lifetime stats. Runs even
// for a failed batch: the prefix's repair did run, and cumulative stats
// must stay consistent with AwakePerNode.
func (e *Engine) accumulate(bs *BatchStats, applied int) {
	e.stats.Batches++
	e.stats.Updates += int64(applied)
	e.stats.Rounds += int64(bs.Rounds)
	e.stats.AwakeTotal += bs.AwakeRounds
	e.stats.Messages += bs.Messages
	e.stats.MsgsDropped += bs.MsgsDropped
	e.stats.Bits += bs.Bits
	e.stats.Violations += bs.Violations
	e.stats.WokenTotal += int64(bs.Woken)
	e.stats.Evictions += int64(bs.Evictions)
	e.stats.Joins += int64(bs.Joins)
	if bs.BitsMax > e.stats.BitsMax {
		e.stats.BitsMax = bs.BitsMax
	}
	if bs.Region > 0 {
		e.stats.Elections++
	}
	if bs.Region > e.stats.MaxRegion {
		e.stats.MaxRegion = bs.Region
	}
	e.stats.Components += int64(bs.Components)
	if bs.Components > e.stats.MaxComponents {
		e.stats.MaxComponents = bs.Components
	}
	e.batchNo++
}

// applyStructural applies one update's structural changes, marking the
// affected region in st. rest counts the batch's updates from this one
// on.
func (e *Engine) applyStructural(up *Update, rest int, st *scratch) error {
	switch up.Op {
	case OpInsertEdge, OpRemoveEdge:
		u, v := up.U, up.V
		if u == v {
			return fmt.Errorf("self-loop at %d", u)
		}
		if !e.Alive(u) || !e.Alive(v) {
			return fmt.Errorf("endpoint of (%d,%d) dead or out of range", u, v)
		}
		if up.Op == OpInsertEdge {
			// A row with no capacity belongs to a node inserted without
			// edges (arena rows always have slack). The batch's first such
			// row takes the rest of the batch, which the hub attack's
			// reconnect batch fills exactly; later ones grow by append, so
			// a batch of many new nodes reserves one batch length ahead of
			// need, not one per node.
			for _, x := range [2]int{u, v} {
				if cap(e.adj[x]) == 0 && !st.rowSized {
					e.adj[x] = make([]int32, 0, rest)
					st.rowSized = true
				}
			}
			var added bool
			e.adj[u], added = insertSorted(e.adj[u], int32(v))
			if !added {
				return nil // edge already present: nothing happened
			}
			e.adj[v], _ = insertSorted(e.adj[v], int32(u))
			e.edges++
			e.memberNbrs[u] += e.memberBit(int32(v))
			e.memberNbrs[v] += e.memberBit(int32(u))
		} else {
			var removed bool
			e.adj[u], removed = removeSorted(e.adj[u], int32(v))
			if !removed {
				return nil
			}
			e.adj[v], _ = removeSorted(e.adj[v], int32(u))
			e.edges--
			e.memberNbrs[u] -= e.memberBit(int32(v))
			e.memberNbrs[v] -= e.memberBit(int32(u))
		}
		st.wake(int32(u))
		st.wake(int32(v))
		st.markDirty(int32(u))
		st.markDirty(int32(v))
	case OpInsertNode:
		id := int32(len(e.adj))
		// Validate the whole neighbor list before mutating anything, so a
		// rejected insert leaves no partially-wired (and undirtied) node.
		for _, nb := range up.Neighbors {
			if int32(nb) == id {
				return fmt.Errorf("self-loop at new node %d", id)
			}
			if !e.Alive(nb) {
				return fmt.Errorf("neighbor %d of new node dead or out of range", nb)
			}
		}
		e.adj = append(e.adj, nil)
		e.alive = append(e.alive, true)
		e.growMembership()
		st.grow(len(e.adj))
		e.aliveCount++
		for _, nb := range up.Neighbors {
			var added bool
			e.adj[id], added = insertSorted(e.adj[id], int32(nb))
			if !added {
				continue // duplicate in the neighbor list
			}
			e.adj[nb], _ = insertSorted(e.adj[nb], id)
			e.edges++
			e.memberNbrs[id] += e.memberBit(int32(nb))
			st.wake(int32(nb))
		}
		st.wake(id)
		st.markDirty(id)
	case OpRemoveNode:
		v := up.U
		if !e.Alive(v) {
			return fmt.Errorf("node %d dead or out of range", v)
		}
		row := e.adj[v]
		wasMember := e.inSet[v]
		if wasMember {
			// Leave the set while the row still names the neighbors whose
			// member counts drop.
			e.clearMember(int32(v))
		}
		for _, u := range row {
			e.adj[u], _ = removeSorted(e.adj[u], int32(v))
			st.wake(u)
			if wasMember {
				// u may have lost its only member neighbor.
				st.markDirty(u)
			}
		}
		e.edges -= len(row)
		e.adj[v] = nil
		e.alive[v] = false
		e.aliveCount--
		e.memberNbrs[v] = 0
		// The dead slot must not join the repair region even if an earlier
		// update in the batch marked it.
		st.unmark(int32(v))
	default:
		return fmt.Errorf("unknown op %d", up.Op)
	}
	return nil
}

// searchInt32 returns the insertion point of x in sorted s: the smallest
// index i with s[i] >= x. These lookups are the structural-apply hot path
// (one per edge endpoint per update); rows are short on the sparse churn
// workloads — average degree single digits — where a branch-predictable
// linear scan beats binary search, so only long rows binary-search.
func searchInt32(s []int32, x int32) int {
	if len(s) <= 32 {
		for i, v := range s {
			if v >= x {
				return i
			}
		}
		return len(s)
	}
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// insertSorted inserts x into sorted slice s, reporting whether it was
// absent. An x past the last element appends without a search: a new
// node takes the largest slot, so every edge to it lands at a row's end.
func insertSorted(s []int32, x int32) ([]int32, bool) {
	if len(s) == 0 || s[len(s)-1] < x {
		return append(s, x), true
	}
	i := searchInt32(s, x)
	if i < len(s) && s[i] == x {
		return s, false
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = x
	return s, true
}

// removeSorted removes x from sorted slice s, reporting whether it was
// present. Removing the last element (the newest node's edge) truncates
// without a search.
func removeSorted(s []int32, x int32) ([]int32, bool) {
	if n := len(s); n > 0 && s[n-1] == x {
		return s[:n-1], true
	}
	i := searchInt32(s, x)
	if i >= len(s) || s[i] != x {
		return s, false
	}
	return append(s[:i], s[i+1:]...), true
}

func containsSorted(s []int32, x int32) bool {
	i := searchInt32(s, x)
	return i < len(s) && s[i] == x
}
