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
	Components   int // connected components of the input graph
	MaxComponent int // nodes in the largest; the timetable is sized by it
}

// newMachines returns the n per-node automata of a run under tt. Each
// node's wake schedule and finisher desire levels are windows of two
// per-run arrays, so a node allocates neither per tree operation nor per
// finisher attempt.
func newMachines(n int, tt *Timetable) []Machine {
	nodes := make([]Machine, n)
	wake := make([]int, n*wakeCap)
	levels := make([]float64, n*tt.K)
	for v := range nodes {
		nodes[v] = Machine{
			tt:     tt,
			wake:   wakeSet{rounds: wake[v*wakeCap : v*wakeCap : (v+1)*wakeCap]},
			levels: levels[v*tt.K : (v+1)*tt.K : (v+1)*tt.K],
		}
	}
	return nodes
}

// Run executes Phase III on g in the given mode: Borůvka merging from
// singleton clusters to one rooted spanning tree per connected component,
// then the Lemma 2.7 parallel-executions finisher. The automata live in
// one flat value array and run through sim.Run.
//
// Unlike the simpler protocols (luby, phase1, ghaffari, degreduce), Phase
// III has no struct-of-arrays BatchMachine: its state is dozens of
// interdependent per-node fields (tree position, iteration scratch, merge
// roles, finisher vectors) touched a few at a time along deeply branching
// stage logic, so an SoA split would trade a large correctness risk for
// little locality gain.
func Run(g *graph.Graph, mode Mode, p Params, cfg sim.Config) (*Outcome, error) {
	n := g.N()
	var cc graph.Components
	cc.Find(g)
	tt := NewTimetable(n, cc.MaxSize(), mode, p)
	nodes := newMachines(n, tt)
	machines := make([]sim.Machine, n)
	for v := range nodes {
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
		Components:   cc.Len(),
		MaxComponent: cc.MaxSize(),
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
