package dynamic

import (
	"fmt"

	"github.com/energymis/energymis/internal/ghaffari"
	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/luby"
	"github.com/energymis/energymis/internal/sim"
)

// This file is the per-node reference repair path (Params.Legacy):
// map-based region tracking and elections with per-node machines
// (luby.RunLegacy / ghaffari.RunShatterLegacy). It shares the region
// partition, per-component seed derivation, and region-ordered merge with
// the batch path (partition.go), so the two paths must produce identical
// sets and identical deterministic counters; the differential tests hold
// them against each other.

// repairState tracks the affected region of a batch on the legacy path.
type repairState struct {
	// dirty nodes must re-check the MIS invariant (membership conflicts or
	// lost coverage); woken nodes spent energy this batch (notifications,
	// probes, elections).
	dirty map[int32]struct{}
	woken map[int32]struct{}
}

func newRepairState() *repairState {
	return &repairState{
		dirty: make(map[int32]struct{}),
		woken: make(map[int32]struct{}),
	}
}

func (st *repairState) markDirty(v int32) { st.dirty[v] = struct{}{} }
func (st *repairState) wake(v int32)      { st.woken[v] = struct{}{} }
func (st *repairState) unmark(v int32) {
	delete(st.dirty, v)
	delete(st.woken, v)
}

// repairLegacy restores the MIS invariant after a batch's structural
// changes: conflict eviction, coverage probing, then a localized
// re-election on the uncovered region.
func (e *Engine) repairLegacy(st *repairState, bs *BatchStats) error {
	if len(st.dirty) == 0 && len(st.woken) == 0 {
		return nil // nothing changed (no-op updates only)
	}
	e.resolveConflictsLegacy(st, bs)

	// Coverage probe: every dirty node broadcasts a probe; member
	// neighbors answer. Listening neighbors wake for the probe round.
	region := make([]int32, 0, len(st.dirty))
	for _, v := range sortedKeys(st.dirty) {
		if !e.alive[v] || e.inSet[v] {
			continue
		}
		bs.Messages += int64(len(e.adj[v])) // probe broadcast
		covered := false
		for _, u := range e.adj[v] {
			st.wake(u)
			if e.inSet[u] {
				covered = true
				bs.Messages++ // member's reply
			}
		}
		if !covered {
			region = append(region, v)
		}
	}
	bs.Region = len(region)

	bs.Rounds = 1 // the detection/probe round; elections add theirs
	if len(region) > 0 {
		if err := e.electLegacy(region, st, bs); err != nil {
			return err
		}
	}

	// Charge the detection/probe round last, over the final woken set, so
	// every node reported in Woken is also charged at least one awake
	// round (election awake rounds were folded by mergeComponents).
	for _, v := range sortedKeys(st.woken) {
		e.awake[v]++
		bs.AwakeRounds++
	}
	bs.Woken = len(st.woken)
	return nil
}

// resolveConflictsLegacy evicts members until no edge has two member
// endpoints. A conflict edge can only be created by a batch edge insertion
// (the set was valid before the batch, and elections never join adjacent
// nodes), so both of its endpoints are in the original dirty set and one
// sweep over it is exhaustive; evictions only remove members and cannot
// create new conflicts. The evicted endpoint is the one whose departure
// uncovers fewer nodes: lower degree, ties toward the higher ID.
func (e *Engine) resolveConflictsLegacy(st *repairState, bs *BatchStats) {
	evict := func(m int32) {
		e.clearMember(m)
		bs.Evictions++
		// The leaver notifies its neighborhood; everyone there must
		// re-check coverage.
		bs.Messages += int64(len(e.adj[m]))
		st.wake(m)
		st.markDirty(m)
		for _, u := range e.adj[m] {
			st.wake(u)
			st.markDirty(u)
		}
	}
	for _, v := range sortedKeys(st.dirty) {
		for e.alive[v] && e.inSet[v] {
			conflict := int32(-1)
			for _, u := range e.adj[v] {
				if e.inSet[u] {
					conflict = u
					break
				}
			}
			if conflict < 0 {
				break
			}
			loser := v
			du, dv := len(e.adj[conflict]), len(e.adj[v])
			if du < dv || (du == dv && conflict > v) {
				loser = conflict
			}
			evict(loser)
		}
	}
}

// electLegacy builds the uncovered region's induced subgraph with the
// legacy map idiom, then runs the shared per-component election/merge
// (sequential on this path). region is sorted ascending.
func (e *Engine) electLegacy(region []int32, st *repairState, bs *BatchStats) error {
	local := make(map[int32]int32, len(region))
	for i, v := range region {
		local[v] = int32(i)
	}
	b := graph.NewBuilder(len(region))
	for i, v := range region {
		for _, u := range e.adj[v] {
			if j, ok := local[u]; ok && int32(i) < j {
				b.AddEdge(i, int(j))
			}
		}
	}
	return e.electComponents(b.Build(), region, st, bs)
}

// electComponentLegacy elects one non-singleton component on the per-node
// engines, accumulating into its compRun exactly like the batch path.
func (e *Engine) electComponentLegacy(sub *graph.Graph, c int, base sim.Config) error {
	cr := &e.comps[c]
	sg := graph.InducedSubgraph(sub, cr.ids)
	cfg := compCfg(base, uint64(c))
	switch e.p.Repair {
	case RepairGhaffari:
		return e.electGhaffariCompLegacy(sg.Graph, cfg, cr)
	default:
		return e.electLubyCompLegacy(sg.Graph, cfg, cr)
	}
}

// electLubyCompLegacy runs per-node Luby to completion on the component.
func (e *Engine) electLubyCompLegacy(g *graph.Graph, cfg sim.Config, cr *compRun) error {
	inSub, res, err := luby.RunLegacy(g, cfg)
	if err != nil {
		return fmt.Errorf("dynamic: re-election: %w", err)
	}
	cr.account(res, nil)
	cr.inSet = inSub
	return nil
}

// electGhaffariCompLegacy runs the per-node desire-level dynamics for
// O(log |C|) rounds, retries on stragglers, and finishes any remaining
// nodes with Luby.
func (e *Engine) electGhaffariCompLegacy(g *graph.Graph, cfg sim.Config, cr *compRun) error {
	inSub := make([]bool, g.N())
	cur := g
	// orig[i] maps cur's node i to the component node index.
	orig := identity32(g.N())
	for attempt := 0; ; attempt++ {
		if cur.N() == 0 {
			cr.inSet = inSub
			return nil
		}
		if attempt >= e.p.MaxRetry {
			// Luby finisher: always terminates.
			inFin, res, err := luby.RunLegacy(cur, bump(cfg, uint64(attempt)))
			if err != nil {
				return fmt.Errorf("dynamic: finisher: %w", err)
			}
			cr.account(res, orig)
			for i, in := range inFin {
				if in {
					inSub[orig[i]] = true
				}
			}
			cr.inSet = inSub
			return nil
		}
		rounds := ghaffariRounds(cur.N())
		inG, survivors, res, err := ghaffari.RunShatterLegacy(cur, rounds, bump(cfg, uint64(attempt)))
		if err != nil {
			return fmt.Errorf("dynamic: ghaffari: %w", err)
		}
		cr.account(res, orig)
		for i, in := range inG {
			if in {
				inSub[orig[i]] = true
			}
		}
		if len(survivors) == 0 {
			cr.inSet = inSub
			return nil
		}
		cr.retries++
		nextOrig := make([]int32, len(survivors))
		for i, s := range survivors {
			nextOrig[i] = orig[s]
		}
		next := graph.InducedSubgraph(cur, survivors)
		// Compose mappings: next's node i is the component's nextOrig[i].
		cur, orig = next.Graph, nextOrig
	}
}
