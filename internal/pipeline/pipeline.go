package pipeline

import (
	"time"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/obs"
	"github.com/energymis/energymis/internal/sim"
	"github.com/energymis/energymis/internal/stats"
)

// Pipeline tracks one composed run: the input graph, the accumulated
// output set, the residual node set the next phase runs on, and the shared
// engine resources.
type Pipeline struct {
	g    *graph.Graph
	base sim.Config // root-seed config; phases derive from it via ForPhase

	acc      *stats.Accumulator
	inSet    []bool
	residual []int           // original IDs of the nodes the next phase runs on
	sub      *graph.Subgraph // residual's induced subgraph, built on first use

	// Observability: base.Tracer (when set) receives phase spans from
	// Begin/Record/Sync, bracketing the per-round events the engine emits
	// during each phase's run. spanStart anchors span wall times.
	tracer    obs.Tracer
	spanStart time.Time
}

// New starts a pipeline over g. base carries the root seed, worker count,
// CONGEST budget, and the shared engine buffer pool; a nil base.Mem gets a
// fresh pool (callers executing many pipelines pass one Mem per worker to
// amortize engine allocations across runs — a Mem must not be shared by
// concurrent pipelines). The first phase runs on g itself, and the
// residual stays empty until its first SetResidual.
func New(g *graph.Graph, base sim.Config) *Pipeline {
	if base.Mem == nil {
		base.Mem = sim.NewMem()
	}
	n := g.N()
	return &Pipeline{
		g: g, base: base,
		acc:    stats.NewAccumulator(n),
		inSet:  make([]bool, n),
		tracer: base.Tracer,
	}
}

// Begin opens a phase span: the tracer (if any) gets a PhaseStart event,
// and per-round engine events until the matching Record are attributed to
// this phase. Call it immediately before running a phase; a no-op without
// a tracer.
func (p *Pipeline) Begin(name string) {
	if p.tracer != nil {
		p.tracer.PhaseStart(name)
		p.spanStart = time.Now()
	}
}

// Cfg returns the engine configuration of phase `phase`: a per-phase seed
// derived from the root seed (sim.Config.ForPhase), and the pipeline's
// shared Mem pool.
func (p *Pipeline) Cfg(phase uint64) sim.Config {
	return p.base.ForPhase(phase)
}

// Graph returns the pipeline's input graph.
func (p *Pipeline) Graph() *graph.Graph { return p.g }

// Residual returns the current residual node set in original IDs: empty
// until the first SetResidual. The returned slice is the pipeline's own;
// phases must not mutate it.
func (p *Pipeline) Residual() []int { return p.residual }

// Subgraph returns the induced subgraph of the current residual set,
// with Orig mapping local back to original IDs. It is built on the first
// call after a SetResidual and shared by every call until the next one
// (a phase run over several engine runs and the phase after it often
// read the same residual), so callers must not mutate it or its Orig.
func (p *Pipeline) Subgraph() *graph.Subgraph {
	if p.sub == nil {
		p.sub = graph.InducedSubgraph(p.g, p.residual)
	}
	return p.sub
}

// Record accounts one phase's engine result. origIDs[i] is the original
// node index of phase-local node i; nil means the phase ran on the full
// input graph. With a tracer attached, Record also closes a phase span:
// the emitted PhaseStats carry the result's aggregates, the residual size
// at this moment (callers update the residual before recording), and the
// wall time since the last Begin or Record.
func (p *Pipeline) Record(name string, res *sim.Result, origIDs []int32) {
	p.acc.AddPhase(name, res, origIDs)
	if p.tracer != nil {
		var awake int64
		for _, a := range res.Awake {
			awake += int64(a)
		}
		p.tracer.PhaseEnd(obs.PhaseStats{
			Name:        name,
			Rounds:      res.Rounds,
			Awake:       awake,
			MsgsSent:    res.MsgsSent,
			MsgsDropped: res.MsgsDropped,
			Bits:        res.BitsTotal,
			Violations:  res.Violations,
			Residual:    len(p.residual),
			WallNS:      p.sinceSpanStart(),
		})
	}
}

// sinceSpanStart returns the wall time since the span anchor and re-arms
// it, so consecutive Records (phase iterations under one Begin) partition
// the elapsed time instead of double-counting it.
func (p *Pipeline) sinceSpanStart() int64 {
	now := time.Now()
	var d int64
	if !p.spanStart.IsZero() {
		d = now.Sub(p.spanStart).Nanoseconds()
	}
	p.spanStart = now
	return d
}

// Join adds a phase's independent set (in phase-local IDs) to the output
// set. origIDs follows the Record convention.
func (p *Pipeline) Join(localInSet []bool, origIDs []int32) {
	for v, in := range localInSet {
		if !in {
			continue
		}
		if origIDs != nil {
			p.inSet[origIDs[v]] = true
		} else {
			p.inSet[v] = true
		}
	}
}

// SetResidual replaces the residual set with the given phase-local nodes,
// mapped through origIDs (Record convention).
func (p *Pipeline) SetResidual(local []int, origIDs []int32) {
	next := make([]int, 0, len(local))
	for _, v := range local {
		if origIDs != nil {
			next = append(next, int(origIDs[v]))
		} else {
			next = append(next, v)
		}
	}
	p.residual = next
	p.sub = nil
}

// Sync charges the one-round all-awake phase-boundary synchronization to
// the current residual set. It is a real round in the model (every
// residual node wakes once), so a tracer sees it as a complete one-round
// phase span: PhaseStart, one Round event, PhaseEnd.
func (p *Pipeline) Sync(name string) {
	nodes := make([]int32, len(p.residual))
	for i, v := range p.residual {
		nodes[i] = int32(v)
	}
	p.acc.AddFlat(name, 1, nodes)
	if p.tracer != nil {
		p.tracer.PhaseStart(name)
		p.tracer.Round(obs.RoundStats{Round: 0, Awake: len(nodes)})
		p.tracer.PhaseEnd(obs.PhaseStats{
			Name: name, Rounds: 1, Awake: int64(len(nodes)), Residual: len(p.residual),
		})
	}
}

// InSet returns the accumulated output set (aliased, not copied).
func (p *Pipeline) InSet() []bool { return p.inSet }

// Summary finalizes the composed complexity measures.
func (p *Pipeline) Summary() stats.Summary { return p.acc.Summarize() }

// AwakePerNode returns the composed per-node awake counts.
func (p *Pipeline) AwakePerNode() []int64 { return p.acc.AwakePerNode() }
