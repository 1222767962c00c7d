package main

import (
	"strings"
	"time"

	"github.com/energymis/energymis/internal/obs"
)

// tracer is the benchmark's in-memory obs.Tracer. It brackets every traced
// op with a span timed by the benchmark, receives the program's phase
// spans (PhaseStart/PhaseEnd) and engine rounds (Round) through the
// existing hooks, and folds them into per-layer accumulators. Spans of the
// first keepOps ops are also kept whole for spans.jsonl.
//
// Durations come from two clocks. A phase's duration is the program's own
// PhaseStats.WallNS and a round's is RoundStats.WallNS; the benchmark's
// clock times the op and the intervals between callbacks. On static runs
// the two must agree: the phase durations plus the gaps between phases
// (the glue) add up to the op's time (conservationErr). Dynamic repairs
// replay their election events after the election ran, so only the
// program's durations are meaningful there.
type tracer struct {
	base    time.Time
	keepOps int
	spans   []span

	layers map[string]*layerAcc
	ops    int
	opNS   int64
	// coveredNS is the benchmark-clock time inside phase spans; electNS the
	// program-reported time of dynamic election spans; singletons counts
	// analytically decided singleton repair components.
	coveredNS  int64
	electNS    int64
	singletons int64
	retries    int64 // Phase III fresh-randomness retries
	awakeAll   int64 // awake node-rounds over every round event

	// Per-op state.
	keep    bool
	opSpan  int
	openAt  int64 // benchmark-clock start of the open phase interval; -1 when none
	cur     int   // kept span index of the open phase; -1 when none
	curDone bool  // cur has received its PhaseEnd
	pend    layerAcc
}

// layerAcc accumulates one layer's spans and the rounds inside them.
type layerAcc struct {
	spanNS   int64 // program-reported span time
	engineNS int64 // engine round time inside the spans
	rounds   int64
	awake    int64
	sent     int64
	dropped  int64
	// analytic rounds are charged by the model but not run on the engine:
	// phase-boundary syncs, repair detection and singleton decisions.
	analytic bool
}

// span is one kept trace span. StartNS/EndNS are on the benchmark's clock
// (nanoseconds since the trace began), DurNS is the program-reported
// duration for phases and rounds and the measured duration for ops, and
// SelfNS is DurNS minus the durations of the span's children.
type span struct {
	Workload string `json:"workload,omitempty"`
	Op       int    `json:"op"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Kind     string `json:"kind"`
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	DurNS    int64  `json:"dur_ns"`
	SelfNS   int64  `json:"self_ns"`
	Rounds   int64  `json:"rounds,omitempty"`
	Awake    int64  `json:"awake,omitempty"`
}

func newTracer(keepOps int) *tracer {
	return &tracer{base: time.Now(), keepOps: keepOps, layers: map[string]*layerAcc{}}
}

func (t *tracer) now() int64 { return time.Since(t.base).Nanoseconds() }

// layerOf maps a phase name to the module that runs it.
func layerOf(name string) string {
	switch {
	case name == "phase-i":
		return "phase1"
	case strings.HasPrefix(name, "phase-i/ii"):
		return "avgenergy"
	case strings.HasPrefix(name, "phase-i."):
		return "degreduce"
	case name == "phase-ii":
		return "shatter"
	case strings.HasPrefix(name, "phase-iii"):
		return "phase3"
	case name == "luby", name == "reg-luby":
		return "luby"
	case strings.HasPrefix(name, "sync-"):
		return "pipeline"
	case strings.HasPrefix(name, "repair/"):
		return "dynamic"
	}
	return "other"
}

func isAnalytic(name string) bool {
	return strings.HasPrefix(name, "sync-") || name == "repair/detect" || name == "repair/singleton"
}

func isElection(name string) bool {
	return name == "repair/luby" || name == "repair/ghaffari" || name == "repair/finisher"
}

func (t *tracer) layer(name string) *layerAcc {
	key := layerOf(name)
	if isAnalytic(name) {
		key += "/analytic"
	}
	a := t.layers[key]
	if a == nil {
		a = &layerAcc{analytic: isAnalytic(name)}
		t.layers[key] = a
	}
	return a
}

// beginOp opens the op span; the caller times the op itself.
func (t *tracer) beginOp() {
	t.keep = t.ops < t.keepOps
	t.openAt, t.cur, t.curDone = -1, -1, false
	t.pend = layerAcc{}
	if t.keep {
		t.opSpan = len(t.spans)
		t.spans = append(t.spans, span{Op: t.ops, ID: t.opSpan, Parent: -1, Kind: "op", Name: "op", Layer: "core", StartNS: t.now()})
	}
}

// endOp closes the op span with its measured duration.
func (t *tracer) endOp(durNS int64) {
	if t.keep {
		s := &t.spans[t.opSpan]
		s.EndNS = s.StartNS + durNS
		s.DurNS = durNS
		s.SelfNS = durNS
		for i := t.opSpan + 1; i < len(t.spans); i++ {
			if t.spans[i].Parent == t.opSpan {
				s.SelfNS -= t.spans[i].DurNS
			}
		}
	}
	t.ops++
	t.opNS += durNS
}

// PhaseStart implements obs.Tracer.
func (t *tracer) PhaseStart(name string) {
	now := t.now()
	t.openAt = now
	t.pend = layerAcc{}
	if t.keep {
		t.cur, t.curDone = len(t.spans), false
		t.spans = append(t.spans, span{Op: t.ops, ID: t.cur, Parent: t.opSpan, Kind: "phase", Name: name, Layer: layerOf(name), StartNS: now})
	}
}

// Round implements obs.Tracer. Rounds belong to the next PhaseEnd.
func (t *tracer) Round(r obs.RoundStats) {
	t.pend.engineNS += r.WallNS
	t.pend.rounds++
	t.pend.awake += int64(r.Awake)
	t.pend.sent += r.MsgsSent
	t.pend.dropped += r.MsgsDropped
	t.awakeAll += int64(r.Awake)
	if t.keep {
		now := t.now()
		t.spans = append(t.spans, span{Op: t.ops, ID: len(t.spans), Parent: t.cur, Kind: "round", Name: "round", Layer: "sim",
			StartNS: now - r.WallNS, EndNS: now, DurNS: r.WallNS, SelfNS: r.WallNS, Rounds: 1, Awake: int64(r.Awake)})
	}
}

// PhaseEnd implements obs.Tracer. One PhaseStart may be followed by
// several PhaseEnds (degree reduction records one span per iteration);
// each closes the interval since the previous event of the same phase.
func (t *tracer) PhaseEnd(p obs.PhaseStats) {
	now := t.now()
	a := t.layer(p.Name)
	a.spanNS += p.WallNS
	a.engineNS += t.pend.engineNS
	a.rounds += t.pend.rounds
	a.awake += t.pend.awake
	a.sent += t.pend.sent
	a.dropped += t.pend.dropped
	if isElection(p.Name) {
		t.electNS += p.WallNS
	}
	if p.Name == "repair/singleton" {
		t.singletons += int64(p.Rounds)
	}
	if strings.HasPrefix(p.Name, "phase-iii.retry") {
		t.retries++
	}
	if t.openAt >= 0 {
		t.coveredNS += now - t.openAt
		t.openAt = now
	}
	if t.keep {
		if t.cur < 0 || t.curDone {
			start := now
			if t.cur >= 0 {
				start = t.spans[t.cur].EndNS
			}
			t.cur = len(t.spans)
			t.spans = append(t.spans, span{Op: t.ops, ID: t.cur, Parent: t.opSpan, Kind: "phase", StartNS: start})
		}
		s := &t.spans[t.cur]
		s.Name, s.Layer = p.Name, layerOf(p.Name)
		s.EndNS, s.DurNS = now, p.WallNS
		s.SelfNS = p.WallNS - t.pend.engineNS
		s.Rounds, s.Awake = int64(p.Rounds), p.Awake
		t.curDone = true
	}
	t.pend = layerAcc{}
}

// conservationErr is (phase durations + benchmark-clock glue) / op time −
// 1 for static runs: how far the program's phase clock and the
// benchmark's op clock disagree, as a share of the op time.
func conservationErr(phaseNS, coveredNS, opNS int64) float64 {
	if opNS == 0 {
		return 0
	}
	return float64(phaseNS+opNS-coveredNS)/float64(opNS) - 1
}
