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

// Outcome of a shattering run. Phase III, which runs on the survivors,
// finds their components.
type Outcome struct {
	InSet     []bool // independent set found by the dynamics
	Survivors []int  // undecided nodes, ascending
	Rounds    int
	Res       *sim.Result
}

// Run executes the phase on g. The dynamics run as a struct-of-arrays
// automaton on the batch runtime (ghaffari.RunShatter, held to the
// per-node machines by ghaffari's differential tests).
func Run(g *graph.Graph, p Params, cfg sim.Config) (*Outcome, error) {
	rounds := p.Rounds(g.MaxDegree())
	inSet, survivors, res, err := ghaffari.RunShatter(g, rounds, cfg)
	if err != nil {
		return nil, fmt.Errorf("shatter: %w", err)
	}
	return &Outcome{InSet: inSet, Survivors: survivors, Rounds: rounds, Res: res}, nil
}
