package obs

// RoundStats is one executed round's aggregate, as observed by the engine:
// the counter *deltas* of exactly this round, not running totals. Summing
// a run's RoundStats therefore reproduces the run's Result counters.
type RoundStats struct {
	Round       int   // engine-local round index
	Awake       int   // number of awake nodes this round
	MsgsSent    int64 // messages put on edges this round
	MsgsDropped int64 // messages whose receiver was asleep
	Bits        int64 // sum of declared message sizes
	Violations  int64 // messages exceeding the CONGEST budget
	WallNS      int64 // wall-clock time spent executing the round
}

// PhaseStats is one closed phase span of a composed run.
type PhaseStats struct {
	Name        string
	Rounds      int   // rounds the phase contributed (Result.Rounds of its engine run)
	Awake       int64 // awake node-rounds charged by the phase (the energy delta)
	MsgsSent    int64
	MsgsDropped int64
	Bits        int64
	Violations  int64
	Residual    int   // residual node count when the span closed
	WallNS      int64 // wall-clock time spent inside the span
}

// SummaryStats carries a finished run's authoritative totals (computed
// from the Result, not re-derived from the streamed events — that
// independence is what makes CheckTrace a real consistency check).
type SummaryStats struct {
	Rounds      int
	MaxAwake    int
	AvgAwake    float64
	P99Awake    int
	AwakeTotal  int64
	MsgsSent    int64
	MsgsDropped int64
	BitsTotal   int64
	BitsMax     int
	Violations  int64
	MISSize     int

	// Dynamic-run extras (zero for static runs): repair-region component
	// counts and the batch engine's word-sweep counter. Reported in the
	// summary record only — they have no per-round events, so they sit
	// outside CheckTrace's conservation checks.
	Components    int64
	MaxComponents int
	SweepWords    int64
}

// Tracer receives execution events: one Round callback per executed round
// from the engine, and PhaseStart/PhaseEnd spans from the composition
// layer. All callbacks for one run are invoked from a single goroutine,
// in event order; implementations need no locking against the run itself.
//
// A nil Tracer disables tracing; the engine guards every emission with a
// nil check, so the disabled path costs one branch per round.
type Tracer interface {
	PhaseStart(name string)
	Round(r RoundStats)
	PhaseEnd(p PhaseStats)
}

// MultiTracer fans every event out to each element, in order.
type MultiTracer []Tracer

// PhaseStart implements Tracer.
func (m MultiTracer) PhaseStart(name string) {
	for _, t := range m {
		t.PhaseStart(name)
	}
}

// Round implements Tracer.
func (m MultiTracer) Round(r RoundStats) {
	for _, t := range m {
		t.Round(r)
	}
}

// PhaseEnd implements Tracer.
func (m MultiTracer) PhaseEnd(p PhaseStats) {
	for _, t := range m {
		t.PhaseEnd(p)
	}
}

// Multi combines tracers, dropping nils: it returns nil when none remain
// (preserving the engine's nil fast path) and the tracer itself when only
// one remains (no fan-out indirection for the common single-sink case).
func Multi(ts ...Tracer) Tracer {
	var out MultiTracer
	for _, t := range ts {
		if t != nil {
			out = append(out, t)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}
