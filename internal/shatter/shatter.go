package shatter

import (
	"fmt"
	"math"

	"github.com/energymis/energymis/internal/ghaffari"
	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/sim"
)

// Params are the tunable constants of the phase.
type Params struct {
	// RoundsC scales the round count: rounds = ceil(RoundsC·log2(Δ+2)) +
	// Floor. The analysis needs Θ(log Δ) rounds for the per-node
	// undecided-probability to reach 1/poly(Δ).
	RoundsC float64
	Floor   int
}

// DefaultParams returns practical constants: enough rounds that the
// survivor components are small, short enough that shattering does not
// degenerate into running the dynamics to completion (which would spend
// Θ(log n)-style energy on the last deciders and leave Phase III idle).
func DefaultParams() Params { return Params{RoundsC: 2, Floor: 4} }

// Rounds returns the logical round count used for maximum degree maxDeg.
func (p Params) Rounds(maxDeg int) int {
	return int(math.Ceil(p.RoundsC*math.Log2(float64(maxDeg+2)))) + p.Floor
}

// Outcome of a shattering run.
type Outcome struct {
	InSet        []bool  // independent set found by the dynamics
	Survivors    []int   // undecided nodes
	Components   [][]int // survivor components (indices into the input graph)
	MaxComponent int
	Rounds       int
	Res          *sim.Result
}

// Run executes the phase on g. The dynamics run as a struct-of-arrays
// automaton on the batch runtime (ghaffari.Batch); results are
// byte-identical to RunLegacy (the per-node reference).
func Run(g *graph.Graph, p Params, cfg sim.Config) (*Outcome, error) {
	return run(g, p, cfg, ghaffari.RunShatter)
}

// RunLegacy executes the phase with the per-node machines through
// sim.Run: the reference the batch automaton is differentially tested
// against.
func RunLegacy(g *graph.Graph, p Params, cfg sim.Config) (*Outcome, error) {
	return run(g, p, cfg, ghaffari.RunShatterLegacy)
}

func run(g *graph.Graph, p Params, cfg sim.Config,
	shatter func(*graph.Graph, int, sim.Config) ([]bool, []int, *sim.Result, error)) (*Outcome, error) {
	rounds := p.Rounds(g.MaxDegree())
	inSet, survivors, res, err := shatter(g, rounds, cfg)
	if err != nil {
		return nil, fmt.Errorf("shatter: %w", err)
	}
	out := &Outcome{InSet: inSet, Survivors: survivors, Rounds: rounds, Res: res}
	if len(survivors) > 0 {
		sub := graph.InducedSubgraph(g, survivors)
		for _, comp := range graph.Components(sub.Graph) {
			mapped := make([]int, len(comp))
			for i, v := range comp {
				mapped[i] = int(sub.Orig[v])
			}
			out.Components = append(out.Components, mapped)
			if len(comp) > out.MaxComponent {
				out.MaxComponent = len(comp)
			}
		}
	}
	return out, nil
}
