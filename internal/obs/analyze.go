package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// PhaseAgg is one phase record's aggregates, as read back from a trace.
type PhaseAgg struct {
	Name        string
	Rounds      int
	Awake       int64
	MsgsSent    int64
	MsgsDropped int64
	Bits        int64
	Violations  int64
	Residual    int
	WallNS      int64
	// EngineNS sums the wall_ns of the round records between the previous
	// phase record and this one in file order, the span Pipeline.Record
	// closes; WallNS - EngineNS is the phase's time outside engine rounds
	// (protocol set-up such as InitAll's pre-sampling, residual and
	// subgraph work).
	EngineNS int64
}

// TraceSummary is the analyzer's digest of one trace.
type TraceSummary struct {
	Meta   map[string]string
	N      int        // node count from header metadata (0 if absent)
	Phases []PhaseAgg // phase records in file order
	Total  Record     // the summary record (zero Record when absent)

	RoundCount int      // number of round records
	PeakAwake  int64    // largest per-round awake count
	Curve      []Record // round records in file order (the awake-vs-round curve)

	// Stages sums the engine stage times over the round records that
	// carry them (schema version 2 engine rounds); Stages.Rounds is 0 for
	// a trace without stage fields.
	Stages StageTotals
}

// StageTotals is the engine's time split by round stage, summed over the
// round records that carry stage fields, with those records' wall time
// and messages sent.
type StageTotals struct {
	Rounds                                    int
	ComposeNS, RouteNS, DeliverNS, ScheduleNS int64
	WallNS                                    int64
	MsgsSent                                  int64
}

// Summarize digests a trace for reporting.
func Summarize(t *Trace) *TraceSummary {
	s := &TraceSummary{Meta: t.Header.Meta, N: t.MetaInt("n")}
	var engine int64 // round wall time since the last phase record
	for i := range t.Records {
		rec := &t.Records[i]
		switch rec.Type {
		case RecRound:
			engine += rec.WallNS
			s.RoundCount++
			if rec.Awake > s.PeakAwake {
				s.PeakAwake = rec.Awake
			}
			s.Curve = append(s.Curve, *rec)
			if stageSum(rec) > 0 {
				st := &s.Stages
				st.Rounds++
				st.ComposeNS += rec.ComposeNS
				st.RouteNS += rec.RouteNS
				st.DeliverNS += rec.DeliverNS
				st.ScheduleNS += rec.ScheduleNS
				st.WallNS += rec.WallNS
				st.MsgsSent += rec.MsgsSent
			}
		case RecPhase:
			s.Phases = append(s.Phases, PhaseAgg{
				Name: rec.Name, Rounds: rec.Rounds, Awake: rec.Awake,
				MsgsSent: rec.MsgsSent, MsgsDropped: rec.MsgsDropped,
				Bits: rec.Bits, Violations: rec.Violations,
				Residual: rec.Residual, WallNS: rec.WallNS,
				EngineNS: engine,
			})
			engine = 0
		case RecSummary:
			s.Total = *rec
		}
	}
	return s
}

// stageSum is a round record's total engine stage time.
func stageSum(r *Record) int64 {
	return r.ComposeNS + r.RouteNS + r.DeliverNS + r.ScheduleNS
}

// TopPhases returns the k phases with the most awake node-rounds, ties
// broken by file order (deterministic).
func TopPhases(s *TraceSummary, k int) []PhaseAgg {
	idx := make([]int, len(s.Phases))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return s.Phases[idx[a]].Awake > s.Phases[idx[b]].Awake })
	if k > len(idx) {
		k = len(idx)
	}
	out := make([]PhaseAgg, k)
	for i := 0; i < k; i++ {
		out[i] = s.Phases[idx[i]]
	}
	return out
}

// conserved lists the counters that round, phase and summary records
// each carry, in the order of conservedNames.
func conserved(r *Record) [5]int64 {
	return [5]int64{r.Awake, r.MsgsSent, r.MsgsDropped, r.Bits, r.Violations}
}

var conservedNames = [5]string{"awake node-rounds", "messages sent", "messages dropped", "bits", "CONGEST violations"}

// CheckTrace verifies a trace's internal consistency and returns one
// problem string per violation (empty means the trace checks out):
//
//   - structural: a summary record exists, every round record falls inside
//     an open phase span, round sequence numbers are contiguous from 1,
//     and a round's engine stage times sum to at most its wall time;
//   - per phase: each phase record's awake node-rounds, messages
//     sent/dropped, bits and violations equal the sums of the round
//     records since the previous phase record, the rounds it closes
//     (its rounds are not compared: empty engine rounds emit no record);
//   - conservation: the per-round counter deltas and the per-phase
//     aggregates each sum exactly to the summary totals the run's Result
//     reported (the counters above, and phase rounds vs total rounds).
//
// Because the summary is written from the Result — not accumulated from
// the streamed events — a pass proves the engine's tracing hooks account
// every message and awake node-round exactly once.
func CheckTrace(t *Trace) []string {
	var problems []string
	badf := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	var (
		rounds, phases, span [5]int64 // span: the rounds since the last phase record
		phaseRounds          int
		inPhase              bool
		seq                  int
		summary              *Record
	)
	add := func(sum *[5]int64, rec *Record) {
		for i, v := range conserved(rec) {
			sum[i] += v
		}
	}
	for i := range t.Records {
		rec := &t.Records[i]
		switch rec.Type {
		case RecPhaseStart:
			inPhase = true
		case RecRound:
			if !inPhase {
				badf("round record (seq %d) outside any phase span", rec.Seq)
			}
			seq++
			if rec.Seq != seq {
				badf("round sequence gap: got seq %d, want %d", rec.Seq, seq)
				seq = rec.Seq
			}
			if st := stageSum(rec); st > rec.WallNS {
				badf("round seq %d: stage times sum to %d ns, over its wall_ns %d", rec.Seq, st, rec.WallNS)
			}
			add(&rounds, rec)
			add(&span, rec)
		case RecPhase:
			phaseRounds += rec.Rounds
			add(&phases, rec)
			for i, v := range conserved(rec) {
				if v != span[i] {
					badf("phase %q: %s %d, its round records sum to %d", rec.Name, conservedNames[i], v, span[i])
				}
			}
			span = [5]int64{}
		case RecSummary:
			if summary != nil {
				badf("multiple summary records")
			}
			summary = rec
		}
	}
	if summary == nil {
		badf("no summary record (truncated trace?)")
		return problems
	}
	for i, total := range conserved(summary) {
		if rounds[i] != total {
			badf("%s: round records sum to %d, summary says %d", conservedNames[i], rounds[i], total)
		}
		if phases[i] != total {
			badf("%s: phase records sum to %d, summary says %d", conservedNames[i], phases[i], total)
		}
	}
	if phaseRounds != summary.Rounds {
		badf("rounds: phase records sum to %d, summary says %d", phaseRounds, summary.Rounds)
	}
	return problems
}

// PhaseDelta is one phase's change between two traces.
type PhaseDelta struct {
	Name     string
	InA, InB bool
	Rounds   [2]int
	Awake    [2]int64
	MsgsSent [2]int64
}

// TraceDiff is the comparison of two traces.
type TraceDiff struct {
	A, B   *TraceSummary
	Phases []PhaseDelta // union of phase names, A's order first, then B-only
}

// Diff aligns two trace summaries phase by phase. Phases recorded several
// times under one name (retries) are pre-summed per side.
func Diff(a, b *TraceSummary) *TraceDiff {
	d := &TraceDiff{A: a, B: b}
	type agg struct {
		rounds int
		awake  int64
		msgs   int64
		seen   bool
	}
	sum := func(phases []PhaseAgg) (map[string]*agg, []string) {
		m := map[string]*agg{}
		var order []string
		for _, p := range phases {
			e := m[p.Name]
			if e == nil {
				e = &agg{}
				m[p.Name] = e
				order = append(order, p.Name)
			}
			e.seen = true
			e.rounds += p.Rounds
			e.awake += p.Awake
			e.msgs += p.MsgsSent
		}
		return m, order
	}
	am, aorder := sum(a.Phases)
	bm, border := sum(b.Phases)
	names := aorder
	for _, n := range border {
		if _, ok := am[n]; !ok {
			names = append(names, n)
		}
	}
	for _, n := range names {
		pd := PhaseDelta{Name: n}
		if e, ok := am[n]; ok {
			pd.InA = true
			pd.Rounds[0], pd.Awake[0], pd.MsgsSent[0] = e.rounds, e.awake, e.msgs
		}
		if e, ok := bm[n]; ok {
			pd.InB = true
			pd.Rounds[1], pd.Awake[1], pd.MsgsSent[1] = e.rounds, e.awake, e.msgs
		}
		d.Phases = append(d.Phases, pd)
	}
	return d
}

// WriteCurveCSV emits the awake-vs-round curve as CSV: one row per round
// record, with the awake fraction computed against the header's node
// count (column empty when n is unknown).
func WriteCurveCSV(w io.Writer, t *Trace) error {
	s := Summarize(t)
	if _, err := fmt.Fprintln(w, "seq,phase,round,awake,awake_frac,msgs_sent,msgs_dropped,bits,violations,wall_ns"); err != nil {
		return err
	}
	for _, r := range s.Curve {
		frac := ""
		if s.N > 0 {
			frac = fmt.Sprintf("%.6f", float64(r.Awake)/float64(s.N))
		}
		if _, err := fmt.Fprintf(w, "%d,%s,%d,%d,%s,%d,%d,%d,%d,%d\n",
			r.Seq, r.Phase, r.Round, r.Awake, frac, r.MsgsSent, r.MsgsDropped,
			r.Bits, r.Violations, r.WallNS); err != nil {
			return err
		}
	}
	return nil
}

// WriteTotalsCSV emits the trace's summary record as a one-row CSV — the
// machine-readable counterpart of `mistrace summary`'s totals line,
// including the dynamic-run columns (components, sweep words), which are
// zero for static traces.
func WriteTotalsCSV(w io.Writer, t *Trace) error {
	s := Summarize(t)
	tot := s.Total
	if tot.Type == "" {
		return fmt.Errorf("obs: trace has no summary record")
	}
	if _, err := fmt.Fprintln(w, "rounds,awake_total,max_awake,avg_awake,p99_awake,"+
		"msgs_sent,msgs_dropped,bits,bits_max,violations,mis_size,"+
		"components,max_components,sweep_words"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%d,%d,%d,%.6f,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
		tot.Rounds, tot.Awake, tot.MaxAwake, tot.AvgAwake, tot.P99Awake,
		tot.MsgsSent, tot.MsgsDropped, tot.Bits, tot.BitsMax, tot.Violations,
		tot.MISSize, tot.Components, tot.MaxComponents, tot.SweepWords)
	return err
}

var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders the awake-vs-round curve as a fixed-width text
// sparkline: rounds are bucketed into at most width columns, each column
// showing the bucket's peak awake count scaled against the trace's
// overall peak. Deterministic in the trace contents.
func Sparkline(s *TraceSummary, width int) string {
	if len(s.Curve) == 0 || width <= 0 {
		return ""
	}
	if width > len(s.Curve) {
		width = len(s.Curve)
	}
	peak := s.PeakAwake
	if peak == 0 {
		peak = 1
	}
	var b strings.Builder
	for c := 0; c < width; c++ {
		lo := c * len(s.Curve) / width
		hi := (c + 1) * len(s.Curve) / width
		var m int64
		for _, r := range s.Curve[lo:hi] {
			if r.Awake > m {
				m = r.Awake
			}
		}
		lvl := int(m * int64(len(sparkLevels)-1) / peak)
		b.WriteRune(sparkLevels[lvl])
	}
	return b.String()
}
