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

// This file is the default batch-engine repair path: the affected region
// of a coalesced update window is tracked in epoch-stamped bit vectors
// (zero steady-state allocation, word-op detection sweeps), and the
// re-election runs per independent region component as internal/pipeline
// compositions on the SoA batch runtime (see partition.go). Counters are
// deterministic and identical to repair_legacy.go — same analytic charges,
// same seed derivations, the same partition and merge, and the batch
// election engines are counter-identical to the per-node ones (proven by
// their own differential tests).

// scratch is the batch path's reusable region tracker. The dirty and
// woken sets live in epoch-stamped bit vectors: begin bumps the epochs,
// which empties both sets in O(1), and membership, insertion, and sorted
// enumeration are word operations over the words the batch touched.
type scratch struct {
	dirty bitvec.Stamped
	woken bitvec.Stamped

	// Election scratch: region membership + local index for the region
	// subgraph build, the region buffer, one snapshot buffer for the
	// sweep AND/ANDNOT enumerations, and the region subgraph's reusable
	// CSR arrays.
	local     bitvec.Stamped
	localIdx  []int32
	dirtySnap []int32
	region    []int32
	subOffs   []int32
	subAdj    []int32
}

// begin opens a new batch over n node slots and returns the tracker.
func (s *scratch) begin(n int) *scratch {
	s.dirty.Reset()
	s.woken.Reset()
	s.grow(n)
	return s
}

// grow extends the trackers to cover n slots (node inserts mid-batch
// extend the slot space past what begin saw). Missing runs are appended
// in one allocation per array.
func (s *scratch) grow(n int) {
	if len(s.localIdx) < n {
		s.localIdx = append(s.localIdx, make([]int32, n-len(s.localIdx))...)
	}
	s.dirty.Grow(n)
	s.woken.Grow(n)
	s.local.Grow(n)
}

func (s *scratch) markDirty(v int32) {
	s.grow(int(v) + 1)
	s.dirty.Set(v)
}

func (s *scratch) wake(v int32) {
	s.grow(int(v) + 1)
	s.woken.Set(v)
}

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
// re-elections over the uncovered region. The sweeps are word-packed:
// dirty/woken frontiers AND/ANDNOT against the engine's membership words
// and OR whole adjacency rows, instead of testing one neighbor at a time.
func (e *Engine) repairBatch(st *scratch, bs *BatchStats) error {
	if st.empty() {
		return nil // nothing changed (no-op updates only)
	}
	st.grow(len(e.adj))
	e.resolveConflictsBatch(st, bs)

	// Coverage probe: every dirty non-member broadcasts a probe; member
	// neighbors answer, and the whole neighborhood wakes — one row-wide
	// OR into the woken set plus one membership AND per row word. Dirty
	// nodes are always alive (markDirty only sees live slots and a dying
	// slot is unmarked), so the sweep needs no alive filter.
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
	if e.tracer != nil {
		msgs := bs.Messages - e.simMsgs
		e.tracer.PhaseStart("repair/detect")
		e.tracer.Round(obs.RoundStats{Round: 0, Awake: bs.Woken, MsgsSent: msgs})
		e.tracer.PhaseEnd(obs.PhaseStats{
			Name: "repair/detect", Rounds: 1,
			Awake: int64(bs.Woken), MsgsSent: msgs,
		})
	}
	return nil
}

// resolveConflictsBatch evicts members until no edge has two member
// endpoints; same visit order and tie-breaks as the legacy path (see the
// exhaustiveness argument there). The sweep enumerates dirty ∧ members
// in one word-AND pass: dirty nodes that were not members at sweep start
// get zero inner iterations on the legacy path too, and eviction only
// removes members, so skipping them up front changes nothing.
func (e *Engine) resolveConflictsBatch(st *scratch, bs *BatchStats) {
	st.dirtySnap = st.dirty.AndInto(e.inSetW, st.dirtySnap[:0])
	for _, v := range st.dirtySnap {
		for e.inSet[v] {
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
// replies) — the coverage probe of one dirty non-member, as one fused
// word-grouped pass over the row.
func (e *Engine) probeRow(v int32, st *scratch) (deg, replies int) {
	row := e.adj[v]
	return len(row), st.woken.OrRowCount(row, e.inSetW)
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
// into reusable CSR buffers (region membership tested word-at-a-time
// against the local bit vector) and hands it to the component
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
// neighbors to dst, ascending: each row word ANDs against the region
// membership word and surviving bits map through localIdx.
func (e *Engine) appendRegionNbrs(v int32, st *scratch, dst []int32) []int32 {
	row := e.adj[v]
	for i := 0; i < len(row); {
		w := row[i] >> 6
		var m uint64
		for ; i < len(row) && row[i]>>6 == w; i++ {
			m |= 1 << (uint32(row[i]) & 63)
		}
		x := m & st.local.Word(w)
		base := w << 6
		for x != 0 {
			dst = append(dst, st.localIdx[base+int32(bits.TrailingZeros64(x))])
			x &= x - 1
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
	cfg.Tracer = e.tracer
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
// pipeline (equivalent to the legacy orig-chain: induced subgraphs of
// induced subgraphs compose, and survivor lists are ascending).
func (e *Engine) electGhaffariComp(pl *pipeline.Pipeline, cfg sim.Config, cr *compRun) error {
	cur := pl.Graph()
	var orig []int32 // cur's node i is component node orig[i]; nil = identity
	for attempt := 0; ; attempt++ {
		if cur.N() == 0 {
			return nil
		}
		if attempt >= e.p.MaxRetry {
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
// component, and bump per retry attempt. Shared by both repair paths; the
// batch path adds Mem and Tracer per component on top.
func (e *Engine) simCfg() sim.Config {
	b := e.p.B
	if b == 0 {
		n := len(e.adj)
		if n < 2 {
			n = 2
		}
		b = sim.DefaultB(n)
	}
	seed := e.p.Seed ^ (e.batchNo+1)*0x9e3779b97f4a7c15
	return sim.Config{Seed: seed, B: b}
}

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

func identity32(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}
