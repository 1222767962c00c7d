package core

import (
	"fmt"
	"time"

	"github.com/energymis/energymis/internal/avgenergy"
	"github.com/energymis/energymis/internal/degreduce"
	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/luby"
	"github.com/energymis/energymis/internal/obs"
	"github.com/energymis/energymis/internal/phase1"
	"github.com/energymis/energymis/internal/phase3"
	"github.com/energymis/energymis/internal/pipeline"
	"github.com/energymis/energymis/internal/shatter"
	"github.com/energymis/energymis/internal/sim"
	"github.com/energymis/energymis/internal/stats"
	"github.com/energymis/energymis/internal/verify"
)

// Algorithm selects which MIS algorithm to run.
type Algorithm int

// Algorithms.
const (
	// Luby is the classic O(log n)-time, O(log n)-energy baseline.
	Luby Algorithm = iota + 1
	// Algorithm1 is Theorem 1.1: O(log² n) time, O(log log n) energy.
	Algorithm1
	// Algorithm2 is Theorem 1.2: O(log n·log log n·log* n) time,
	// O(log² log n) energy.
	Algorithm2
	// Algorithm1Avg is Algorithm 1 with the Section 4 extension: O(1)
	// node-averaged energy, same worst-case bounds.
	Algorithm1Avg
	// Algorithm2Avg is Algorithm 2 with the Section 4 extension.
	Algorithm2Avg
	// RegularizedLuby is the slowed-down Luby of Section 2.1 run to
	// completion without the one-shot restriction: O(log Δ·log n) time
	// and energy (the second baseline, used by ablation A1).
	RegularizedLuby
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case Luby:
		return "luby"
	case Algorithm1:
		return "algorithm1"
	case Algorithm2:
		return "algorithm2"
	case Algorithm1Avg:
		return "algorithm1-avg"
	case Algorithm2Avg:
		return "algorithm2-avg"
	case RegularizedLuby:
		return "regularized-luby"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Options configures a run. The zero value is not valid; use
// DefaultOptions.
type Options struct {
	Seed uint64
	B    int // CONGEST budget override (0 = 4·ceil(log2 n))
	// Mem supplies pooled engine buffers reused across phases and runs
	// (see sim.Mem). A Mem must not be shared by concurrent runs; nil
	// allocates per run. Used by the throughput executor to make repeated
	// simulations allocation-free in steady state.
	Mem *sim.Mem
	// Tracer, when non-nil, observes the run: per-round counter deltas
	// from the engine and phase spans from the composition layer (see
	// internal/obs). Nil disables tracing with no measurable hot-path
	// cost. A Tracer must not be shared by concurrent runs.
	Tracer obs.Tracer

	Phase1   phase1.Params
	DegRed   degreduce.Params
	Shatter  shatter.Params
	Phase3   phase3.Params // Mode is forced per algorithm
	AvgEn    avgenergy.Params
	MaxRetry int // outer retries for undecided Phase III leftovers
}

// DefaultOptions returns the paper-faithful defaults.
func DefaultOptions() Options {
	return Options{
		Phase1:   phase1.DefaultParams(),
		DegRed:   degreduce.DefaultParams(),
		Shatter:  shatter.DefaultParams(),
		Phase3:   phase3.DefaultParams(phase3.ModeAlg1),
		AvgEn:    avgenergy.DefaultParams(),
		MaxRetry: 3,
	}
}

// PhaseDiag carries structural diagnostics of a composed run.
type PhaseDiag struct {
	InputMaxDegree     int
	Phase1Iterations   int // Alg1: regularized-Luby iterations; Alg2: reduction iterations
	ResidualMaxDegree  int // after Phase I
	ResidualNodes      int
	SurvivorNodes      int // after Phase II
	SurvivorComponents int
	MaxComponent       int
	TreeDepth          int // deepest Phase III spanning-tree node
	FinisherAttempts   int
	Phase3Retries      int
	FailedNodes        int // Section 4 stage-A failed set |F|
}

// Result of a composed run.
type Result struct {
	Algorithm Algorithm
	InSet     []bool
	Summary   stats.Summary
	// AwakePerNode is each node's total awake rounds across all phases.
	AwakePerNode []int64
	Diag         PhaseDiag
}

// Run executes the selected algorithm on g.
func Run(g *graph.Graph, algo Algorithm, opts Options) (*Result, error) {
	switch algo {
	case Luby:
		return runLuby(g, opts)
	case RegularizedLuby:
		return runRegularizedLuby(g, opts)
	case Algorithm1, Algorithm2, Algorithm1Avg, Algorithm2Avg:
		return runComposed(g, algo, opts)
	default:
		return nil, fmt.Errorf("core: unknown algorithm %d", algo)
	}
}

// tracePhase closes the single phase span of a one-engine-run baseline
// (Luby, RegularizedLuby), mirroring what pipeline.Record emits for each
// phase of a composed run. The baselines decide every node, so the
// residual is always 0.
func tracePhase(tr obs.Tracer, name string, start time.Time, res *sim.Result) {
	if tr == nil {
		return
	}
	var awake int64
	for _, a := range res.Awake {
		awake += int64(a)
	}
	tr.PhaseEnd(obs.PhaseStats{
		Name: name, Rounds: res.Rounds, Awake: awake,
		MsgsSent: res.MsgsSent, MsgsDropped: res.MsgsDropped,
		Bits: res.BitsTotal, Violations: res.Violations,
		WallNS: time.Since(start).Nanoseconds(),
	})
}

func runRegularizedLuby(g *graph.Graph, opts Options) (*Result, error) {
	if opts.Tracer != nil {
		opts.Tracer.PhaseStart("reg-luby")
	}
	start := time.Now()
	inSet, res, err := luby.RunRegularized(g, luby.DefaultRegularizedParams(), opts.simCfg(1))
	if err != nil {
		return nil, err
	}
	tracePhase(opts.Tracer, "reg-luby", start, res)
	acc := stats.NewAccumulator(g.N())
	acc.AddPhase("reg-luby", res, nil)
	return &Result{
		Algorithm:    RegularizedLuby,
		InSet:        inSet,
		Summary:      acc.Summarize(),
		AwakePerNode: acc.AwakePerNode(),
		Diag:         PhaseDiag{InputMaxDegree: g.MaxDegree()},
	}, nil
}

// baseCfg is the root-seed engine configuration of a run; per-phase
// configs derive from it via sim.Config.ForPhase.
func (o Options) baseCfg() sim.Config {
	return sim.Config{Seed: o.Seed, B: o.B, Mem: o.Mem, Tracer: o.Tracer}
}

func (o Options) simCfg(phase uint64) sim.Config {
	return o.baseCfg().ForPhase(phase)
}

func runLuby(g *graph.Graph, opts Options) (*Result, error) {
	if opts.Tracer != nil {
		opts.Tracer.PhaseStart("luby")
	}
	start := time.Now()
	inSet, res, err := luby.Run(g, opts.simCfg(1))
	if err != nil {
		return nil, err
	}
	tracePhase(opts.Tracer, "luby", start, res)
	acc := stats.NewAccumulator(g.N())
	acc.AddPhase("luby", res, nil)
	return &Result{
		Algorithm:    Luby,
		InSet:        inSet,
		Summary:      acc.Summarize(),
		AwakePerNode: acc.AwakePerNode(),
		Diag:         PhaseDiag{InputMaxDegree: g.MaxDegree()},
	}, nil
}

func runComposed(g *graph.Graph, algo Algorithm, opts Options) (*Result, error) {
	// All phases execute on the batch runtime and share one engine buffer
	// pool through the pipeline, so crossing a phase boundary costs zero
	// steady-state engine allocations; callers running many simulations
	// (the bench throughput executor) pass their own per-worker Mem.
	pl := pipeline.New(g, opts.baseCfg())
	diag := PhaseDiag{InputMaxDegree: g.MaxDegree()}

	// --- Phase I: degree reduction ---
	// Each phase block runs the same shape: Begin opens the trace span,
	// the phase executes (per-round events flow to the tracer from inside
	// the engine), then Join/SetResidual update the composed state before
	// Record closes the span — so the span reports the post-phase residual.
	if algo == Algorithm1 || algo == Algorithm1Avg {
		pl.Begin("phase-i")
		out, err := phase1.Run(g, opts.Phase1, pl.Cfg(1))
		if err != nil {
			return nil, err
		}
		pl.Join(out.InSet, nil)
		pl.SetResidual(out.Residual, nil)
		pl.Record("phase-i", out.Res, nil)
		diag.Phase1Iterations = out.Plan.Iterations
	} else {
		pl.Begin("phase-i")
		out, err := degreduce.Run(g, opts.DegRed, pl.Cfg(1))
		if err != nil {
			return nil, err
		}
		pl.Join(out.InSet, nil)
		pl.SetResidual(out.Residual, nil)
		for i, it := range out.Iters {
			pl.Record(fmt.Sprintf("phase-i.%d", i), it.Res, it.Orig)
		}
		diag.Phase1Iterations = len(out.Iters)
	}
	diag.ResidualNodes = len(pl.Residual())

	// Phase boundary: surviving nodes wake once to learn their status.
	pl.Sync("sync-i/ii")

	// --- Phase I-II (Section 4, average-energy variants only) ---
	if algo == Algorithm1Avg || algo == Algorithm2Avg {
		subA := pl.Subgraph()
		pl.Begin("phase-i/ii")
		ae, err := avgenergy.Run(subA.Graph, opts.AvgEn, pl.Cfg(7))
		if err != nil {
			return nil, err
		}
		pl.Join(ae.InSet, subA.Orig)
		pl.SetResidual(ae.Remaining, subA.Orig)
		if ae.StageARes != nil {
			pl.Record("phase-i/ii.a", ae.StageARes, subA.Orig)
		}
		if ae.StageBRes != nil {
			// Stage B ran on a nested subgraph; compose the ID mapping.
			borig := make([]int32, len(ae.StageBOrig))
			for i, v := range ae.StageBOrig {
				borig[i] = subA.Orig[v]
			}
			pl.Record("phase-i/ii.b", ae.StageBRes, borig)
		}
		diag.FailedNodes = ae.Failed
		pl.Sync("sync-i/ii-2")
	}

	// --- Phase II: shattering ---
	sub := pl.Subgraph()
	diag.ResidualMaxDegree = sub.MaxDegree()
	pl.Begin("phase-ii")
	sh, err := shatter.Run(sub.Graph, opts.Shatter, pl.Cfg(2))
	if err != nil {
		return nil, err
	}
	pl.Join(sh.InSet, sub.Orig)
	pl.SetResidual(sh.Survivors, sub.Orig)
	pl.Record("phase-ii", sh.Res, sub.Orig)
	diag.SurvivorNodes = len(sh.Survivors)
	diag.SurvivorComponents = len(sh.Components)
	diag.MaxComponent = sh.MaxComponent

	// --- Phase III: merge + finisher on the shattered survivors ---
	p3params := opts.Phase3
	if algo == Algorithm2 || algo == Algorithm2Avg {
		p3params.Mode = phase3.ModeAlg2
	} else {
		p3params.Mode = phase3.ModeAlg1
	}
	for attempt := 0; len(pl.Residual()) > 0; attempt++ {
		if attempt > opts.MaxRetry {
			return nil, fmt.Errorf("core: %d nodes undecided after %d Phase III retries", len(pl.Residual()), opts.MaxRetry)
		}
		name := "phase-iii"
		if attempt > 0 {
			name = fmt.Sprintf("phase-iii.retry%d", attempt)
			diag.Phase3Retries++
		}
		sub3 := pl.Subgraph()
		pl.Begin(name)
		p3, err := phase3.Run(sub3.Graph, p3params, pl.Cfg(3+uint64(attempt)))
		if err != nil {
			return nil, err
		}
		pl.Join(p3.InSet, sub3.Orig)
		pl.SetResidual(p3.Undecided, sub3.Orig)
		pl.Record(name, p3.Res, sub3.Orig)
		if p3.MaxDepth > diag.TreeDepth {
			diag.TreeDepth = p3.MaxDepth
		}
		if p3.MaxAttempts > diag.FinisherAttempts {
			diag.FinisherAttempts = p3.MaxAttempts
		}
	}

	return &Result{
		Algorithm:    algo,
		InSet:        pl.InSet(),
		Summary:      pl.Summary(),
		AwakePerNode: pl.AwakePerNode(),
		Diag:         diag,
	}, nil
}

// RunVerified runs the algorithm and checks the output is a maximal
// independent set, returning an error otherwise.
func RunVerified(g *graph.Graph, algo Algorithm, opts Options) (*Result, error) {
	res, err := Run(g, algo, opts)
	if err != nil {
		return nil, err
	}
	if err := verify.Check(g, res.InSet); err != nil {
		return nil, fmt.Errorf("core: %s produced invalid output: %w", algo, err)
	}
	return res, nil
}
