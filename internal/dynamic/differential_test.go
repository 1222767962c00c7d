package dynamic

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/rng"
	"github.com/energymis/energymis/internal/verify"
)

// mixedBatch derives a deterministic update batch from the current state
// of e (both engines under test evolve identically, so querying either
// gives the same batch).
func mixedBatch(e *Engine, r *rng.Stream, size int) []Update {
	var ids []int
	for v := 0; v < e.N(); v++ {
		if e.Alive(v) {
			ids = append(ids, v)
		}
	}
	batch := make([]Update, 0, size)
	inserted := 0
	for len(batch) < size {
		switch r.Intn(6) {
		case 0, 1, 2: // edge toggle
			u, v := ids[r.Intn(len(ids))], ids[r.Intn(len(ids))]
			if u == v {
				continue
			}
			if e.HasEdge(u, v) {
				batch = append(batch, DelEdge(u, v))
			} else {
				batch = append(batch, InsEdge(u, v))
			}
		case 3: // node insert (neighbors among current ids)
			k := r.Intn(4)
			nbs := make([]int, 0, k)
			for i := 0; i < k; i++ {
				nbs = append(nbs, ids[r.Intn(len(ids))])
			}
			batch = append(batch, InsNode(nbs...))
			inserted++
		case 4: // node removal (keep the graph from draining)
			if len(ids) > 40 {
				v := ids[r.Intn(len(ids))]
				batch = append(batch, DelNode(v))
				// Drop v so a later update in this batch cannot target it.
				for i, id := range ids {
					if id == v {
						ids = append(ids[:i], ids[i+1:]...)
						break
					}
				}
			}
		case 5: // duplicate/no-op pressure
			u, v := ids[r.Intn(len(ids))], ids[r.Intn(len(ids))]
			if u != v && !e.HasEdge(u, v) {
				batch = append(batch, InsEdge(u, v), DelEdge(u, v))
			}
		}
	}
	return batch
}

// TestBatchVsLegacyDifferential drives the batch and legacy repair paths
// through identical mixed churn and requires identical sets, identical
// per-batch counters, and identical per-node awake ledgers — for both
// repair protocols, with the churn applied in windows of w ∈ {1, 2, 8}
// updates per Apply (about 240 updates in all).
func TestBatchVsLegacyDifferential(t *testing.T) {
	for _, repair := range []RepairAlgo{RepairLuby, RepairGhaffari} {
		for _, w := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/w%d", repair, w), func(t *testing.T) {
				g := graph.GNP(300, 12.0/300, 42)
				inSet := verify.GreedyMIS(g)
				p := Params{Seed: 1234, Repair: repair, MaxRetry: 2}
				pLegacy := p
				pLegacy.Legacy = true
				eb, err := New(g, inSet, p)
				if err != nil {
					t.Fatal(err)
				}
				el, err := New(g, inSet, pLegacy)
				if err != nil {
					t.Fatal(err)
				}
				r := rng.New(7)
				for step := 0; step < 240/w; step++ {
					batch := mixedBatch(eb, r, w)
					bsB, errB := eb.Apply(batch)
					bsL, errL := el.Apply(batch)
					if (errB == nil) != (errL == nil) {
						t.Fatalf("step %d: error mismatch: batch=%v legacy=%v", step, errB, errL)
					}
					if bsB != bsL {
						t.Fatalf("step %d: BatchStats diverge:\nbatch : %+v\nlegacy: %+v", step, bsB, bsL)
					}
					if err := eb.Check(); err != nil {
						t.Fatalf("step %d: batch path invariant: %v", step, err)
					}
				}
				if !reflect.DeepEqual(eb.InSet(), el.InSet()) {
					t.Fatal("InSet diverges between batch and legacy paths")
				}
				if !reflect.DeepEqual(eb.AwakePerNode(), el.AwakePerNode()) {
					t.Fatal("per-node awake ledgers diverge")
				}
				if sb, sl := eb.Stats(), el.Stats(); sb != sl {
					t.Fatalf("Stats diverge:\nbatch : %+v\nlegacy: %+v", sb, sl)
				}
			})
		}
	}
}
