package dynamic

import (
	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/obs"
	"github.com/energymis/energymis/internal/sim"
)

// This file splits the re-election of one coalesced window into its
// independent regions. The uncovered region's induced subgraph splits
// into connected components that cannot observe each other (an MIS of a
// disconnected graph is the union of per-component MISes). A singleton
// component joins analytically, without an engine run; every other
// component elects on its own engine run, in ascending ordinal order, and
// an ordered merge folds the winners and counters back. Every component
// derives its election seed from the (batch, component ordinal) pair
// alone, and per-component counters accumulate in component-local state.
// Both repair paths (batch and legacy) share the same partition, seeds,
// and merge, which keeps them counter-identical.

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

	// Reusable CSR buffers for the induced subgraph of the component
	// being elected (see component); elections run one at a time.
	compOffs []int32
	compAdj  []int32
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

// component builds the induced subgraph of a component of the last split
// (ids: its region-subgraph-local nodes, ascending) from sub's CSR rows
// into the partitioner's reusable buffers; the result is valid until the
// next call. A connected component is closed under adjacency, so no
// membership filtering is needed: every neighbor maps through rank to its
// component-local index, and rows stay ascending because rank is monotone
// within a component.
func (p *partitioner) component(sub *graph.Graph, ids []int) *graph.Graph {
	p.compOffs = p.compOffs[:0]
	p.compAdj = p.compAdj[:0]
	for _, v := range ids {
		p.compOffs = append(p.compOffs, int32(len(p.compAdj)))
		for _, u := range sub.Neighbors(v) {
			p.compAdj = append(p.compAdj, p.rank[u])
		}
	}
	p.compOffs = append(p.compOffs, int32(len(p.compAdj)))
	return graph.FromCSR(p.compOffs, p.compAdj)
}

// compRun is one non-singleton component's election state: the
// component-local result the merge folds. Counters and awake charges
// accumulate here, not on the Engine, so a failed election leaves the
// Engine untouched.
type compRun struct {
	ids   []int  // component nodes, region-subgraph-local, ascending (reused)
	inSet []bool // elected set, component-local indexing

	awake                     []int64 // awake rounds per component-local node
	rounds                    int
	msgs, dropped, bits, viol int64
	bitsMax                   int
	retries                   int
}

// reset prepares the state for a component of the given size.
func (cr *compRun) reset(size int) {
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
// the (batch seed, component ordinal) pair alone. The multiplier is a
// distinct splitmix64-style odd constant so component streams cannot
// collide with the batch (simCfg) or retry (bump) derivations.
func compCfg(base sim.Config, c uint64) sim.Config {
	base.Seed ^= (c + 1) * 0x94d049bb133111eb
	return base
}

// electComponents partitions the region subgraph, elects every
// non-singleton component in ascending ordinal order, and merges the
// winners. region is the sorted engine-slot list the subgraph was built
// from; sub's node i is region[i]. The first failed election is returned
// before the merge, so the Engine's set and counters stay untouched.
func (e *Engine) electComponents(sub *graph.Graph, region []int32, st regionTracker, bs *BatchStats) error {
	offs, nodes := e.part.split(sub)
	work := e.prepComps(offs, nodes)
	base := e.simCfg()
	for _, c := range work {
		var err error
		if e.p.Legacy {
			err = e.electComponentLegacy(sub, int(c), base)
		} else {
			err = e.electComponent(sub, int(c), base)
		}
		if err != nil {
			return err
		}
	}
	e.mergeComponents(region, offs, nodes, st, bs)
	return nil
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
		cr.reset(int(hi - lo))
		for _, i := range nodes[lo:hi] {
			cr.ids = append(cr.ids, int(i))
		}
		e.work = append(e.work, int32(c))
	}
	return e.work
}

// mergeComponents is the region-ordered reduce: fold every component back
// into the engine in ascending ordinal order — singletons analytically,
// elected components from their compRun.
func (e *Engine) mergeComponents(region []int32, offs, nodes []int32, st regionTracker, bs *BatchStats) {
	k := len(offs) - 1
	bs.Components = k
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
