package dynamic

import (
	"sync"
	"sync/atomic"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/obs"
	"github.com/energymis/energymis/internal/sim"
)

// This file parallelizes the re-election across the independent regions of
// one coalesced window. The uncovered region's induced subgraph splits
// into connected components that cannot observe each other (an MIS of a
// disconnected graph is the union of per-component MISes), so each
// component elects on its own engine — concurrently when Params.Workers
// allows — and a deterministic region-ordered merge folds the winners and
// counters back. Determinism does not depend on the schedule: every
// component derives its election seed from the (batch, component ordinal)
// pair alone, per-component counters accumulate in component-local state,
// and the merge always folds components in ascending ordinal order from a
// single goroutine. Workers only changes wall-clock time, never a counter
// or the elected set; both repair paths (batch and legacy) share the same
// partition and merge, which keeps them counter-identical.

// partitioner splits a region subgraph into connected components with a
// reusable union-find. Components are ordered by their smallest member
// (first occurrence in node order), and each component's node list is
// ascending — both independent of edge iteration order, so the ordinals
// are deterministic.
type partitioner struct {
	parent []int32
	ord    []int32 // root -> component ordinal
	sizes  []int32
	offs   []int32
	nodes  []int32
	cursor []int32
	rank   []int32 // subgraph-local node -> index within its component
}

// split partitions sub and returns component c's (subgraph-local) nodes
// as nodes[offs[c]:offs[c+1]], ascending within each component. The
// returned slices are the partitioner's own buffers, valid until the next
// split.
func (p *partitioner) split(sub *graph.Graph) (offs, nodes []int32) {
	n := sub.N()
	p.parent = ensureInt32(p.parent, n)
	for v := 0; v < n; v++ {
		p.parent[v] = int32(v)
	}
	for v := 0; v < n; v++ {
		for _, u := range sub.Neighbors(v) {
			if u > int32(v) {
				p.union(int32(v), u)
			}
		}
	}
	// Ordinals by first occurrence in ascending node order; sizes per
	// component.
	p.ord = ensureInt32(p.ord, n)
	p.sizes = p.sizes[:0]
	k := int32(0)
	for v := 0; v < n; v++ {
		r := p.find(int32(v))
		if int(r) == v {
			p.ord[r] = k
			k++
			p.sizes = append(p.sizes, 0)
		}
		p.sizes[p.ord[r]]++
	}
	// Prefix offsets, then bucket-fill the node lists in ascending order.
	p.offs = ensureInt32(p.offs, int(k)+1)
	p.cursor = ensureInt32(p.cursor, int(k))
	run := int32(0)
	for c := int32(0); c < k; c++ {
		p.offs[c] = run
		p.cursor[c] = run
		run += p.sizes[c]
	}
	p.offs[k] = run
	p.nodes = ensureInt32(p.nodes, n)
	p.rank = ensureInt32(p.rank, n)
	for v := 0; v < n; v++ {
		c := p.ord[p.find(int32(v))]
		p.rank[v] = p.cursor[c] - p.offs[c]
		p.nodes[p.cursor[c]] = int32(v)
		p.cursor[c]++
	}
	return p.offs, p.nodes
}

// find uses path halving; union attaches the larger root under the
// smaller, so a component's root is always its smallest member and the
// first-occurrence ordinal assignment can test root == self.
func (p *partitioner) find(x int32) int32 {
	for p.parent[x] != x {
		p.parent[x] = p.parent[p.parent[x]]
		x = p.parent[x]
	}
	return x
}

func (p *partitioner) union(a, b int32) {
	ra, rb := p.find(a), p.find(b)
	switch {
	case ra == rb:
	case ra < rb:
		p.parent[rb] = ra
	default:
		p.parent[ra] = rb
	}
}

// ensureInt32 returns a slice of length n, reusing s's storage when it is
// large enough. Contents are unspecified.
func ensureInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// compRun is one non-singleton component's election state: the work list
// entry a worker consumes and the component-local result the merge folds.
// Counters and awake charges accumulate here — never on the Engine — so
// workers share nothing but the immutable region subgraph.
type compRun struct {
	ids   []int  // component nodes, region-subgraph-local, ascending (reused)
	inSet []bool // elected set, component-local indexing

	awake                     []int64 // awake rounds per component-local node
	rounds                    int
	msgs, dropped, bits, viol int64
	bitsMax                   int
	retries                   int

	// Reusable CSR buffers for the component's induced subgraph (see
	// subgraph); owned per component so concurrent elections never share.
	offs []int32
	adjb []int32

	rec *obs.Recorder // per-component trace buffer; nil when untraced
	err error
}

// subgraph builds the component's induced subgraph from the region
// subgraph's CSR rows into the compRun's reusable buffers. A connected
// component is closed under adjacency, so no membership filtering is
// needed: every neighbor maps through rank to its component-local index,
// and rows stay ascending because rank is monotone within a component.
func (cr *compRun) subgraph(sub *graph.Graph, rank []int32) *graph.Graph {
	cr.offs = cr.offs[:0]
	cr.adjb = cr.adjb[:0]
	for _, v := range cr.ids {
		cr.offs = append(cr.offs, int32(len(cr.adjb)))
		for _, u := range sub.Neighbors(v) {
			cr.adjb = append(cr.adjb, rank[u])
		}
	}
	cr.offs = append(cr.offs, int32(len(cr.adjb)))
	return graph.FromCSR(cr.offs, cr.adjb)
}

// reset prepares the state for a component of the given size.
func (cr *compRun) reset(size int, traced bool) {
	cr.ids = cr.ids[:0]
	cr.inSet = nil
	if cap(cr.awake) < size {
		cr.awake = make([]int64, size)
	} else {
		cr.awake = cr.awake[:size]
		for i := range cr.awake {
			cr.awake[i] = 0
		}
	}
	cr.rounds, cr.bitsMax, cr.retries = 0, 0, 0
	cr.msgs, cr.dropped, cr.bits, cr.viol = 0, 0, 0, 0
	cr.err = nil
	if traced {
		if cr.rec == nil {
			cr.rec = &obs.Recorder{}
		}
		cr.rec.Reset()
	} else {
		cr.rec = nil
	}
}

// account folds one engine run into the component's counters. orig maps
// run-local node i to its component-local index (nil = identity), the
// electGhaffari retry-chain convention.
func (cr *compRun) account(res *sim.Result, orig []int32) {
	cr.rounds += res.Rounds
	cr.msgs += res.MsgsSent
	cr.dropped += res.MsgsDropped
	cr.bits += res.BitsTotal
	cr.viol += res.Violations
	if res.BitsMax > cr.bitsMax {
		cr.bitsMax = res.BitsMax
	}
	for i, cnt := range res.Awake {
		j := i
		if orig != nil {
			j = int(orig[i])
		}
		cr.awake[j] += int64(cnt)
	}
}

// compCfg derives component c's election config from the batch config:
// every component draws an independent randomness stream determined by
// the (batch seed, component ordinal) pair alone, regardless of which
// worker runs it or when. The multiplier is a distinct splitmix64-style
// odd constant so component streams cannot collide with the batch
// (simCfg) or retry (bump) derivations.
func compCfg(base sim.Config, c uint64) sim.Config {
	base.Seed ^= (c + 1) * 0x94d049bb133111eb
	return base
}

// electComponents partitions the region subgraph, elects every
// non-singleton component — concurrently when Params.Workers > 1 — and
// merges the winners in component order. region is the sorted engine-slot
// list the subgraph was built from; sub's node i is region[i].
func (e *Engine) electComponents(sub *graph.Graph, region []int32, st regionTracker, bs *BatchStats) error {
	offs, nodes := e.part.split(sub)
	work := e.prepComps(offs, nodes)
	base := e.simCfg()
	switch poolW := min(e.p.Workers, len(work)); {
	case e.p.Legacy:
		// The reference path elects sequentially on the per-node engines;
		// the shared partition, seeds, and merge keep it counter-identical
		// to any batch-path worker count.
		for _, c := range work {
			e.electComponentLegacy(sub, int(c), base)
		}
	case poolW > 1:
		// Component pool, shaped like bench.RunThroughput: per-worker Mem,
		// an atomic cursor for work stealing, inner elections sequential.
		// Ensure the pool up front — Get must not grow it while shared.
		e.memPool.Ensure(poolW)
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < poolW; w++ {
			wg.Add(1)
			go func(mem *sim.Mem) {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(work) {
						return
					}
					e.electComponent(sub, int(work[i]), base, mem, 1)
				}
			}(e.memPool.Get(w))
		}
		wg.Wait()
	default:
		// Zero or one component pool slot: run inline and give the inner
		// election engine the full worker budget instead.
		for _, c := range work {
			e.electComponent(sub, int(c), base, e.memPool.Get(0), e.p.Workers)
		}
	}
	return e.mergeComponents(region, offs, nodes, st, bs)
}

// prepComps sizes the per-component state for this partition and returns
// the work list: the ordinals of the non-singleton components (the only
// ones that need an engine election).
func (e *Engine) prepComps(offs, nodes []int32) []int32 {
	k := len(offs) - 1
	if len(e.comps) < k {
		e.comps = append(e.comps, make([]compRun, k-len(e.comps))...)
	}
	e.work = e.work[:0]
	for c := 0; c < k; c++ {
		lo, hi := offs[c], offs[c+1]
		if hi-lo <= 1 {
			continue
		}
		cr := &e.comps[c]
		cr.reset(int(hi-lo), e.tracer != nil)
		for _, i := range nodes[lo:hi] {
			cr.ids = append(cr.ids, int(i))
		}
		e.work = append(e.work, int32(c))
	}
	return e.work
}

// mergeComponents is the region-ordered reduce: from a single goroutine,
// fold every component back into the engine in ascending ordinal order —
// singletons analytically, elected components from their compRun. All
// folded quantities are order-insensitive sums (or maxes), and the order
// is fixed anyway, so the outcome is byte-identical for any worker count.
func (e *Engine) mergeComponents(region []int32, offs, nodes []int32, st regionTracker, bs *BatchStats) error {
	k := len(offs) - 1
	bs.Components = k
	// Surface the first failed election before mutating anything, keeping a
	// failed Apply's partial state no worse than the sequential path's.
	for _, c := range e.work {
		if err := e.comps[c].err; err != nil {
			return err
		}
	}
	singles := 0
	for c := 0; c < k; c++ {
		comp := nodes[offs[c]:offs[c+1]]
		if len(comp) == 1 {
			// Singleton fast path: an uncovered node with no uncovered
			// neighbor joins deterministically — one awake round to decide,
			// no messages, no randomness. The analytic charge replaces the
			// engine run; the join notification is charged below like any
			// other joiner's.
			bs.Rounds++
			v := region[comp[0]]
			e.awake[v]++
			bs.AwakeRounds++
			singles++
			e.joinMIS(v, st, bs)
			continue
		}
		cr := &e.comps[c]
		bs.Rounds += cr.rounds
		bs.Messages += cr.msgs
		bs.MsgsDropped += cr.dropped
		bs.Bits += cr.bits
		bs.Violations += cr.viol
		if cr.bitsMax > bs.BitsMax {
			bs.BitsMax = cr.bitsMax
		}
		bs.Retries += cr.retries
		e.simMsgs += cr.msgs
		for i, a := range cr.awake {
			e.awake[region[comp[i]]] += a
			bs.AwakeRounds += a
		}
		if cr.rec != nil && e.tracer != nil {
			cr.rec.Replay(e.tracer)
		}
		for i, in := range cr.inSet {
			if in {
				e.joinMIS(region[comp[i]], st, bs)
			}
		}
	}
	// One synthetic span for all singleton decisions of the batch, so the
	// trace's phase and round sums still reproduce the engine totals
	// (singletons charge awake rounds but send nothing).
	if singles > 0 && e.tracer != nil {
		e.tracer.PhaseStart("repair/singleton")
		e.tracer.Round(obs.RoundStats{Round: 0, Awake: singles})
		e.tracer.PhaseEnd(obs.PhaseStats{
			Name: "repair/singleton", Rounds: singles, Awake: int64(singles),
		})
	}
	return nil
}

// joinMIS adds v to the maintained set: the joiner notifies its full
// neighborhood, which wakes for the notification. On the batch path the
// wake is a word-op row OR.
func (e *Engine) joinMIS(v int32, st regionTracker, bs *BatchStats) {
	e.setMember(v)
	bs.Joins++
	if sc, ok := st.(*scratch); ok {
		bs.Messages += int64(e.wakeRow(v, sc))
		return
	}
	bs.Messages += int64(len(e.adj[v]))
	for _, u := range e.adj[v] {
		st.wake(u)
	}
}
