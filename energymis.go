package energymis

import (
	"fmt"
	"strconv"

	"github.com/energymis/energymis/internal/core"
	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/obs"
	"github.com/energymis/energymis/internal/sim"
	"github.com/energymis/energymis/internal/verify"
)

// Mem is a pool of reusable simulation-engine buffers. Passing one Mem to
// many runs (Options.Mem) amortizes all engine allocations across them:
// every phase of every run executes against the warm pool, so steady-state
// runs allocate ≈nothing in the engine. Results are byte-identical to runs
// without a pool. A Mem must not be shared by concurrent runs — use one
// per worker.
type Mem = sim.Mem

// NewMem returns an empty engine buffer pool (see Mem).
func NewMem() *Mem { return sim.NewMem() }

// Graph is an immutable undirected simple graph in CSR form. Construct one
// with NewBuilder or the generators (GNP, RGG, ...).
type Graph = graph.Graph

// Builder accumulates edges for a Graph.
type Builder = graph.Builder

// NewBuilder returns a builder for a graph on n nodes.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges builds a graph on n nodes from an edge list.
func FromEdges(n int, edges [][2]int) *Graph { return graph.FromEdges(n, edges) }

// Algorithm selects the MIS algorithm to run.
type Algorithm int

// Available algorithms.
const (
	// Luby is the classic randomized MIS baseline [Lub86, ABI86]:
	// O(log n) rounds, but every node stays awake until decided, so the
	// energy complexity equals the time complexity.
	Luby Algorithm = iota + 1
	// Algorithm1 is the paper's Theorem 1.1: O(log² n) rounds with only
	// O(log log n) awake rounds per node.
	Algorithm1
	// Algorithm2 is the paper's Theorem 1.2: O(log n·log log n·log* n)
	// rounds with O(log² log n) awake rounds per node.
	Algorithm2
	// Algorithm1Avg augments Algorithm1 with the Section 4 pipeline for
	// O(1) node-averaged energy.
	Algorithm1Avg
	// Algorithm2Avg augments Algorithm2 likewise.
	Algorithm2Avg
	// RegularizedLuby is the slowed-down Luby variant of Section 2.1 run
	// in its basic form (no one-shot marking): a second baseline showing
	// the energy blow-up Phase I's modifications remove.
	RegularizedLuby
)

// String implements fmt.Stringer.
func (a Algorithm) String() string { return a.toCore().String() }

func (a Algorithm) toCore() core.Algorithm {
	switch a {
	case Luby:
		return core.Luby
	case Algorithm1:
		return core.Algorithm1
	case Algorithm2:
		return core.Algorithm2
	case Algorithm1Avg:
		return core.Algorithm1Avg
	case Algorithm2Avg:
		return core.Algorithm2Avg
	case RegularizedLuby:
		return core.RegularizedLuby
	default:
		return core.Algorithm(0)
	}
}

// Algorithms lists every supported algorithm, baselines first.
func Algorithms() []Algorithm {
	return []Algorithm{Luby, RegularizedLuby, Algorithm1, Algorithm2, Algorithm1Avg, Algorithm2Avg}
}

// Options configures a run. The zero value is valid: seed 0 and the
// paper-faithful parameter profile. Messages are held to the CONGEST
// budget B = 4·ceil(log2 n) bits. A run executes on the calling goroutine.
type Options struct {
	// Seed drives all randomness; identical (graph, algorithm, Seed)
	// runs produce identical outputs and measurements.
	Seed uint64
	// Mem supplies a pooled engine-buffer set reused across runs (see
	// Mem/NewMem). Nil allocates per run.
	Mem *Mem
	// TracePath, when non-empty, streams a versioned JSONL run trace to
	// the given file: a header with environment metadata, one record per
	// executed round (awake count, message/bit deltas, wall time), phase
	// spans, and a closing summary written from the Result. Traces are
	// deterministic in (graph, algorithm, Seed) up to wall-time fields
	// and are analyzed with cmd/mistrace; see docs/OBSERVABILITY.md.
	// Tracing is off (and free) when empty.
	TracePath string
	// Advanced sets the constants of Phases II and III (Shatter, Phase3)
	// and an engine Tracer; nil uses core.DefaultOptions. Seed and a
	// non-nil Mem above override its fields of the same name.
	Advanced *core.Options
}

func (o Options) toCore() core.Options {
	opts := core.DefaultOptions()
	if o.Advanced != nil {
		opts = *o.Advanced
	}
	opts.Seed = o.Seed
	if o.Mem != nil {
		opts.Mem = o.Mem
	}
	return opts
}

// PhaseStats reports one phase's contribution to a composed run.
type PhaseStats struct {
	Name     string
	Rounds   int
	MaxAwake int
	AvgAwake float64
	Messages int64
}

// Result reports a run's output and measured complexity.
type Result struct {
	Algorithm Algorithm
	// InSet[v] reports whether node v is in the computed MIS.
	InSet []bool

	// Rounds is the time complexity: total synchronous rounds.
	Rounds int
	// MaxAwake is the energy complexity: the maximum number of awake
	// rounds over all nodes.
	MaxAwake int
	// AvgAwake is the node-averaged energy.
	AvgAwake float64
	// P99Awake is the 99th percentile of per-node awake rounds.
	P99Awake int

	// AwakeTotal is the total awake node-rounds over the run — the
	// denominator of the benchmarks' ns/awake-node-round metric.
	AwakeTotal int64

	// AwakePerNode is each node's total awake rounds — the per-node
	// energy spend (e.g. for battery-lifetime analyses).
	AwakePerNode []int64

	Messages int64 // CONGEST messages sent
	// MessagesDropped counts messages whose receiver was asleep.
	MessagesDropped int64
	// BitsTotal is the sum of declared message sizes over the run.
	BitsTotal int64
	BitsMax   int // largest single message, in bits
	// CongestViolations counts messages exceeding the model budget
	// (always 0 for the shipped algorithms).
	CongestViolations int64

	Phases []PhaseStats
	// Diag carries structural diagnostics (residual degrees, component
	// sizes, spanning-tree depth, retries).
	Diag core.PhaseDiag
}

// MISSize returns the number of nodes in the computed set.
func (r *Result) MISSize() int { return verify.Count(r.InSet) }

// Run executes the selected algorithm on g.
func Run(g *Graph, algo Algorithm, opts Options) (*Result, error) {
	ca := algo.toCore()
	if ca == 0 {
		return nil, fmt.Errorf("energymis: unknown algorithm %d", int(algo))
	}
	copts := opts.toCore()
	var tw *obs.TraceWriter
	if opts.TracePath != "" {
		var err error
		tw, err = obs.CreateTrace(opts.TracePath, map[string]string{
			"algorithm": ca.String(),
			"n":         strconv.Itoa(g.N()),
			"m":         strconv.Itoa(g.M()),
			"seed":      strconv.FormatUint(opts.Seed, 10),
		})
		if err != nil {
			return nil, err
		}
		copts.Tracer = obs.Multi(copts.Tracer, tw)
	}
	cres, err := core.Run(g, ca, copts)
	if err != nil {
		if tw != nil {
			tw.Close()
		}
		return nil, err
	}
	res := fromCore(algo, cres)
	if tw != nil {
		// The summary comes from the Result's own accounting, so the
		// trace's streamed counters can be checked against it
		// (mistrace check / obs.CheckTrace).
		s := cres.Summary
		tw.Summary(obs.SummaryStats{
			Rounds: s.Rounds, MaxAwake: s.MaxAwake, AvgAwake: s.AvgAwake,
			P99Awake: s.P99Awake, AwakeTotal: s.AwakeTotal,
			MsgsSent: s.MsgsSent, MsgsDropped: s.MsgsDropped,
			BitsTotal: s.BitsTotal, BitsMax: s.BitsMax,
			Violations: s.Violations, MISSize: res.MISSize(),
		})
		if err := tw.Close(); err != nil {
			return nil, fmt.Errorf("energymis: writing trace %s: %w", opts.TracePath, err)
		}
	}
	return res, nil
}

// RunVerified runs the algorithm and additionally checks that the output
// is a maximal independent set of g.
func RunVerified(g *Graph, algo Algorithm, opts Options) (*Result, error) {
	res, err := Run(g, algo, opts)
	if err != nil {
		return nil, err
	}
	if err := Check(g, res.InSet); err != nil {
		return nil, err
	}
	return res, nil
}

func fromCore(algo Algorithm, cres *core.Result) *Result {
	r := &Result{
		Algorithm:         algo,
		InSet:             cres.InSet,
		Rounds:            cres.Summary.Rounds,
		MaxAwake:          cres.Summary.MaxAwake,
		AvgAwake:          cres.Summary.AvgAwake,
		P99Awake:          cres.Summary.P99Awake,
		AwakeTotal:        cres.Summary.AwakeTotal,
		AwakePerNode:      cres.AwakePerNode,
		Messages:          cres.Summary.MsgsSent,
		MessagesDropped:   cres.Summary.MsgsDropped,
		BitsTotal:         cres.Summary.BitsTotal,
		BitsMax:           cres.Summary.BitsMax,
		CongestViolations: cres.Summary.Violations,
		Diag:              cres.Diag,
	}
	for _, p := range cres.Summary.Phases {
		r.Phases = append(r.Phases, PhaseStats{
			Name:     p.Name,
			Rounds:   p.Rounds,
			MaxAwake: p.MaxAwake,
			AvgAwake: p.AvgAwake,
			Messages: p.MsgsSent,
		})
	}
	return r
}

// Check validates that inSet is a maximal independent set of g.
func Check(g *Graph, inSet []bool) error { return verify.Check(g, inSet) }

// GreedyMIS computes a sequential maximal independent set (the
// verification oracle; not a distributed algorithm).
func GreedyMIS(g *Graph) []bool { return verify.GreedyMIS(g) }
