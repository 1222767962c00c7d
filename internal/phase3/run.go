package phase3

import (
	"fmt"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/sim"
)

// Outcome reports a Phase III run.
type Outcome struct {
	InSet     []bool // MIS membership for decided nodes
	Undecided []int  // nodes whose component failed (w.l.p.); empty normally
	Timetable *Timetable
	Res       *sim.Result

	MaxDepth     int // deepest final spanning-tree node (diameter <= 2*MaxDepth)
	MaxAttempts  int // finisher attempts used by any component
	BrokenNodes  int // nodes in components that failed to merge
	Components   int
	MaxComponent int
}

// Run executes Phase III on g: Borůvka merging from singleton clusters to
// one rooted spanning tree per connected component, then the Lemma 2.7
// parallel-executions finisher. The automata live in one flat value array
// and run through sim.Run.
//
// Unlike the simpler protocols (luby, phase1, ghaffari, degreduce), Phase
// III has no struct-of-arrays BatchMachine: its state is dozens of
// interdependent per-node fields (tree position, iteration scratch, merge
// roles, finisher vectors) touched a few at a time along deeply branching
// stage logic, so an SoA split would trade a large correctness risk for
// little locality gain.
func Run(g *graph.Graph, p Params, cfg sim.Config) (*Outcome, error) {
	n := g.N()
	cc := graph.Components(g)
	maxComp := 0
	for _, c := range cc {
		if len(c) > maxComp {
			maxComp = len(c)
		}
	}
	tt := NewTimetable(n, maxComp, p)
	thresh := p.IndegreeThresh
	if thresh < 2 {
		thresh = 2
	}
	nodes := make([]Machine, n)
	machines := make([]sim.Machine, n)
	for v := range nodes {
		nodes[v] = Machine{tt: tt, threshVal: thresh}
		machines[v] = &nodes[v]
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = tt.TotalLen + 2
	}
	res, err := sim.Run(g, machines, cfg)
	if err != nil {
		return nil, fmt.Errorf("phase3: %w", err)
	}
	out := &Outcome{
		InSet:        make([]bool, n),
		Timetable:    tt,
		Res:          res,
		Components:   len(cc),
		MaxComponent: maxComp,
	}
	for v := range nodes {
		nm := &nodes[v]
		if nm.Decided() {
			out.InSet[v] = nm.InMIS
		} else {
			out.Undecided = append(out.Undecided, v)
		}
		if nm.Broken() {
			out.BrokenNodes++
		}
		if nm.Depth() > out.MaxDepth {
			out.MaxDepth = nm.Depth()
		}
		if nm.AttemptsUsed() > out.MaxAttempts {
			out.MaxAttempts = nm.AttemptsUsed()
		}
	}
	return out, nil
}
