package dynamic

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/energymis/energymis/internal/bitvec"
	"github.com/energymis/energymis/internal/ghaffari"
	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/luby"
	"github.com/energymis/energymis/internal/obs"
	"github.com/energymis/energymis/internal/pipeline"
	"github.com/energymis/energymis/internal/sim"
)

// This file is the repair of one coalesced update window: the affected
// region is tracked in sparse bit sets (zero steady-state allocation,
// call-free key loops in the detection sweeps), and the re-election runs
// per independent region component as internal/pipeline compositions on
// the SoA batch runtime (see partition.go). Counters are deterministic in
// the engine's seed; the analytic charges (detection round, evictions,
// probes, joins) are what this package's oracle tests replay.

// scratch is the engine's reusable region tracker. The dirty and woken
// sets live in bitvec.Sparse sets: begin resets them, zeroing only the
// words the last batch wrote, and membership, insertion, and sorted
// enumeration are word operations over the words the batch touched. The
// sets always cover every node slot: begin grows them to the slot count,
// and a node insert grows them by its new slot.
type scratch struct {
	dirty bitvec.Sparse
	woken bitvec.Sparse

	// Election scratch: region membership + local index for the region
	// subgraph build, the region buffer, one snapshot buffer for the
	// sweep AND/ANDNOT enumerations, and the region subgraph's reusable
	// CSR arrays.
	local     bitvec.Sparse
	localIdx  []int32
	dirtySnap []int32
	region    []int32
	subOffs   []int32
	subAdj    []int32

	rowSized bool // an edgeless row was sized this batch (applyStructural)
}

// begin opens a new batch over n node slots and returns the tracker.
func (s *scratch) begin(n int) *scratch {
	s.dirty.Reset()
	s.woken.Reset()
	s.rowSized = false
	s.grow(n)
	return s
}

// grow extends the trackers to cover n slots (a node insert mid-batch
// extends the slot space past what begin saw). Missing runs are appended
// in one allocation per array.
func (s *scratch) grow(n int) {
	if len(s.localIdx) < n {
		s.localIdx = append(s.localIdx, make([]int32, n-len(s.localIdx))...)
	}
	s.dirty.Grow(n)
	s.woken.Grow(n)
	s.local.Grow(n)
}

func (s *scratch) markDirty(v int32) { s.dirty.Set(v) }

func (s *scratch) wake(v int32) { s.woken.Set(v) }

// unmark removes v from both sets (its slot died mid-batch). Dead slots
// are never re-marked.
func (s *scratch) unmark(v int32) {
	s.dirty.Clear(v)
	s.woken.Clear(v)
}

func (s *scratch) empty() bool {
	return !s.dirty.Any() && !s.woken.Any()
}

// repairBatch restores the MIS invariant after a batch's structural
// changes: conflict eviction, coverage probing, then per-component
// re-elections over the uncovered region. The dirty frontier is
// enumerated word by word, AND/ANDNOT against the engine's membership
// words; adjacency rows are walked key by key, each key OR-ed into the
// woken set, and member replies are read from the kept member counts.
func (e *Engine) repairBatch(st *scratch, bs *BatchStats) error {
	if st.empty() {
		return nil // nothing changed (no-op updates only)
	}
	e.resolveConflictsBatch(st, bs)

	// Coverage probe: every dirty non-member broadcasts a probe; member
	// neighbors answer, and the whole neighborhood wakes — one pass over
	// the row, OR-ing each key into the woken set, while the replies are
	// the node's kept member count. Dirty nodes are always alive
	// (markDirty only sees live slots and a dying slot is unmarked), so
	// the sweep needs no alive filter.
	st.region = st.region[:0]
	st.dirtySnap = st.dirty.AndNotInto(e.inSetW, st.dirtySnap[:0])
	for _, v := range st.dirtySnap {
		deg, replies := e.probeRow(v, st)
		bs.Messages += int64(deg + replies) // probe broadcast + member replies
		if replies == 0 {
			st.region = append(st.region, v)
		}
	}
	bs.Region = len(st.region)

	bs.Rounds = 1 // the detection/probe round; elections add theirs
	if len(st.region) > 0 {
		if err := e.electBatch(st.region, st, bs); err != nil {
			return err
		}
	}

	// Charge the detection/probe round last, over the final woken set, so
	// every node reported in Woken is also charged at least one awake
	// round (election awake rounds were folded by mergeComponents). The
	// fold is an order-insensitive sum, so it walks the touched words
	// directly — no snapshot, no sort.
	woken := 0
	tw := st.woken.TouchedWords()
	for _, w := range tw {
		x := st.woken.Word(w)
		woken += bits.OnesCount64(x)
		base := w << 6
		for x != 0 {
			e.awake[base+int32(bits.TrailingZeros64(x))]++
			x &= x - 1
		}
	}
	bs.AwakeRounds += int64(woken)
	bs.Woken = woken
	e.perf.SweepWords += int64(len(st.dirty.TouchedWords()) + len(tw))

	// The detection/probe round as a synthetic one-round span, carrying
	// the analytic messages (notifications, probes, replies — everything
	// not sent through an election engine), so trace round/phase sums
	// reproduce the engine totals exactly.
	if tr := e.p.Tracer; tr != nil {
		msgs := bs.Messages - e.simMsgs
		tr.PhaseStart("repair/detect")
		tr.Round(obs.RoundStats{Round: 0, Awake: bs.Woken, MsgsSent: msgs})
		tr.PhaseEnd(obs.PhaseStats{
			Name: "repair/detect", Rounds: 1,
			Awake: int64(bs.Woken), MsgsSent: msgs,
		})
	}
	return nil
}

// resolveConflictsBatch evicts members until no edge has two member
// endpoints. One sweep over the dirty members at sweep start is
// exhaustive: the set was independent when the batch began, so a
// conflict edge can only come from an edge insertion of this batch, and
// both its endpoints were marked dirty then; evictions only remove
// members, so they cannot create a conflict.
// Dirty nodes that are not members have no conflict to resolve, so the
// sweep enumerates dirty ∧ members in one word-AND pass, ascending, and a
// dirty member whose member count is 0 has none either, so its row is
// not searched. Each conflict evicts the endpoint whose departure
// uncovers fewer nodes: lower degree, ties toward the higher ID.
func (e *Engine) resolveConflictsBatch(st *scratch, bs *BatchStats) {
	st.dirtySnap = st.dirty.AndInto(e.inSetW, st.dirtySnap[:0])
	for _, v := range st.dirtySnap {
		for e.inSet[v] && e.memberNbrs[v] > 0 {
			conflict := bitvec.FirstAndRow(e.inSetW, e.adj[v]) // smallest member neighbor
			if conflict < 0 {
				break
			}
			loser := v
			du, dv := len(e.adj[conflict]), len(e.adj[v])
			if du < dv || (du == dv && conflict > v) {
				loser = conflict
			}
			// Evict: the leaver notifies its neighborhood; everyone there
			// must re-check coverage.
			e.clearMember(loser)
			bs.Evictions++
			bs.Messages += int64(e.wakeDirtyRow(loser, st))
			st.wake(loser)
			st.markDirty(loser)
		}
	}
}

// probeRow wakes v's whole neighborhood and returns (degree, member
// replies) — the coverage probe of one dirty non-member. Every key must
// join the woken set, so the row walk is the probe's cost; the replies
// are v's kept member count, read without a second look at the keys.
func (e *Engine) probeRow(v int32, st *scratch) (deg, replies int) {
	row := e.adj[v]
	st.woken.OrRow(row)
	return len(row), int(e.memberNbrs[v])
}

// wakeRow wakes v's neighborhood and returns its degree (the join/leave
// notification fan-out).
func (e *Engine) wakeRow(v int32, st *scratch) int {
	row := e.adj[v]
	st.woken.OrRow(row)
	return len(row)
}

// wakeDirtyRow wakes and dirties v's neighborhood (the eviction fan-out).
func (e *Engine) wakeDirtyRow(v int32, st *scratch) int {
	row := e.adj[v]
	st.woken.OrRow(row)
	st.dirty.OrRow(row)
	return len(row)
}

// electBatch builds the uncovered region's induced subgraph straight
// into reusable CSR buffers (region membership tested key by key
// against the local bit set) and hands it to the component
// partition/election/merge machinery. region is sorted ascending, so the
// emitted local rows are ascending too and FromCSR can trust them.
func (e *Engine) electBatch(region []int32, st *scratch, bs *BatchStats) error {
	st.local.Reset()
	for i, v := range region {
		st.local.Set(v)
		st.localIdx[v] = int32(i)
	}
	st.subOffs = st.subOffs[:0]
	st.subAdj = st.subAdj[:0]
	for _, v := range region {
		st.subOffs = append(st.subOffs, int32(len(st.subAdj)))
		st.subAdj = e.appendRegionNbrs(v, st, st.subAdj)
	}
	st.subOffs = append(st.subOffs, int32(len(st.subAdj)))
	return e.electComponents(graph.FromCSR(st.subOffs, st.subAdj), region, st, bs)
}

// appendRegionNbrs appends the region-local indices of v's in-region
// neighbors to dst, ascending: each row key is tested against the region
// membership set and, when in it, mapped through localIdx.
func (e *Engine) appendRegionNbrs(v int32, st *scratch, dst []int32) []int32 {
	for _, u := range e.adj[v] {
		if st.local.Has(u) {
			dst = append(dst, st.localIdx[u])
		}
	}
	return dst
}

// electComponent elects one non-singleton component on the batch engines:
// an internal/pipeline composition over the component's induced subgraph,
// on the Engine's Mem. Results land in the component's compRun only; with
// a tracer attached, phase spans and round events go straight to it.
func (e *Engine) electComponent(sub *graph.Graph, c int, base sim.Config) error {
	cr := &e.comps[c]
	sg := e.part.component(sub, cr.ids)
	cfg := compCfg(base, uint64(c))
	cfg.Mem = &e.mem
	cfg.Tracer = e.p.Tracer
	pl := pipeline.New(sg, cfg)
	var err error
	switch e.p.Repair {
	case RepairGhaffari:
		err = e.electGhaffariComp(pl, cfg, cr)
	default:
		err = e.electLubyComp(pl, cfg, cr)
	}
	if err != nil {
		return err
	}
	cr.inSet = pl.InSet()
	return nil
}

// electLubyComp runs batch Luby to completion on the component subgraph.
func (e *Engine) electLubyComp(pl *pipeline.Pipeline, cfg sim.Config, cr *compRun) error {
	pl.Begin("repair/luby")
	inSub, res, err := luby.Run(pl.Graph(), cfg)
	if err != nil {
		return fmt.Errorf("dynamic: re-election: %w", err)
	}
	cr.account(res, nil)
	pl.Join(inSub, nil)
	pl.SetResidual(nil, nil)
	pl.Record("repair/luby", res, nil)
	return nil
}

// electGhaffariComp runs the batch desire-level dynamics for O(log |C|)
// rounds, retries on stragglers, and finishes any remaining nodes with
// batch Luby. Residual composition between attempts goes through the
// pipeline: induced subgraphs of induced subgraphs compose, survivor
// lists are ascending, and orig maps each attempt's nodes back to the
// component.
func (e *Engine) electGhaffariComp(pl *pipeline.Pipeline, cfg sim.Config, cr *compRun) error {
	cur := pl.Graph()
	var orig []int32 // cur's node i is component node orig[i]; nil = identity
	for attempt := 0; ; attempt++ {
		if cur.N() == 0 {
			return nil
		}
		if attempt >= maxRetry {
			// Luby finisher: always terminates.
			pl.Begin("repair/finisher")
			inFin, res, err := luby.Run(cur, bump(cfg, uint64(attempt)))
			if err != nil {
				return fmt.Errorf("dynamic: finisher: %w", err)
			}
			cr.account(res, orig)
			pl.Join(inFin, orig)
			pl.SetResidual(nil, nil)
			pl.Record("repair/finisher", res, orig)
			return nil
		}
		rounds := ghaffariRounds(cur.N())
		pl.Begin("repair/ghaffari")
		inG, survivors, res, err := ghaffari.RunShatter(cur, rounds, bump(cfg, uint64(attempt)))
		if err != nil {
			return fmt.Errorf("dynamic: ghaffari: %w", err)
		}
		cr.account(res, orig)
		pl.Join(inG, orig)
		pl.SetResidual(survivors, orig)
		pl.Record("repair/ghaffari", res, orig)
		if len(survivors) == 0 {
			return nil
		}
		cr.retries++
		sg := pl.Subgraph()
		cur, orig = sg.Graph, sg.Orig
	}
}

// simCfg returns the base engine configuration of this batch's elections.
// Each batch gets a fresh deterministic seed; compCfg then splits it per
// component, and bump per retry attempt. electComponent adds Mem and
// Tracer per component on top. The CONGEST budget is sim.DefaultB of the
// slot count, not of an election's component.
func (e *Engine) simCfg() sim.Config {
	seed := e.p.Seed ^ (e.batchNo+1)*0x9e3779b97f4a7c15
	return sim.Config{Seed: seed, B: sim.DefaultB(max(len(e.adj), 2))}
}

// maxRetry bounds the Ghaffari attempts on a component before the Luby
// finisher takes over.
const maxRetry = 2

// ghaffariRounds is the logical round count of one Ghaffari attempt on an
// n-node component.
func ghaffariRounds(n int) int {
	r := 4 * (int(math.Log2(float64(n)+1)) + 1)
	if r < 8 {
		r = 8
	}
	return r
}

func bump(cfg sim.Config, k uint64) sim.Config {
	cfg.Seed ^= (k + 1) * 0xd1342543de82ef95
	return cfg
}
