package obs

import (
	"bytes"
	"strings"
	"testing"
)

// writeSample streams a small two-phase run through a TraceWriter and
// returns the bytes. The numbers are internally consistent, so the trace
// passes CheckTrace.
func writeSample(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewTraceWriter(&buf, map[string]string{"algorithm": "test", "n": "8", "seed": "1"})
	w.PhaseStart("phase-a")
	w.Round(RoundStats{Round: 0, Awake: 4, MsgsSent: 8, Bits: 64, WallNS: 120})
	w.Round(RoundStats{Round: 1, Awake: 2, MsgsSent: 2, MsgsDropped: 1, Bits: 16, WallNS: 80})
	w.PhaseEnd(PhaseStats{Name: "phase-a", Rounds: 2, Awake: 6, MsgsSent: 10, MsgsDropped: 1, Bits: 80, Residual: 2, WallNS: 200})
	w.PhaseStart("phase-b")
	w.Round(RoundStats{Round: 0, Awake: 2, MsgsSent: 2, Bits: 16, WallNS: 40})
	w.PhaseEnd(PhaseStats{Name: "phase-b", Rounds: 1, Awake: 2, MsgsSent: 2, Bits: 16, WallNS: 40})
	w.Summary(SummaryStats{Rounds: 3, MaxAwake: 2, AvgAwake: 1.0, AwakeTotal: 8, MsgsSent: 12, MsgsDropped: 1, BitsTotal: 96, BitsMax: 16, MISSize: 5})
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

func TestTraceRoundTrip(t *testing.T) {
	data := writeSample(t)
	tr, err := ReadTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Header.SchemaVersion != TraceSchemaVersion {
		t.Fatalf("schema version %d, want %d", tr.Header.SchemaVersion, TraceSchemaVersion)
	}
	if tr.Header.Env == nil || tr.Header.Env.GoVersion == "" {
		t.Fatal("header env missing")
	}
	if got := tr.MetaInt("n"); got != 8 {
		t.Fatalf("MetaInt(n) = %d, want 8", got)
	}
	sum := tr.Summary()
	if sum == nil || sum.Awake != 8 || sum.MISSize != 5 {
		t.Fatalf("summary = %+v", sum)
	}
	// 1 header + 2 phase_start + 3 round + 2 phase + 1 summary.
	if len(tr.Records) != 9 {
		t.Fatalf("got %d records, want 9", len(tr.Records))
	}
	// Round sequence numbers are global and 1-based.
	var seqs []int
	for _, r := range tr.Records {
		if r.Type == RecRound {
			seqs = append(seqs, r.Seq)
		}
	}
	for i, s := range seqs {
		if s != i+1 {
			t.Fatalf("round seq = %v", seqs)
		}
	}
	if problems := CheckTrace(tr); len(problems) != 0 {
		t.Fatalf("CheckTrace: %v", problems)
	}
}

func TestCheckTraceCatchesMismatch(t *testing.T) {
	data := writeSample(t)
	tr, err := ReadTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one round's message count: the phase-sum invariant still
	// holds against the summary, so only the round side and the phase
	// record that closes the round trip.
	for i := range tr.Records {
		if tr.Records[i].Type == RecRound {
			tr.Records[i].MsgsSent += 3
			break
		}
	}
	problems := CheckTrace(tr)
	if len(problems) == 0 {
		t.Fatal("corrupted trace passed CheckTrace")
	}
	if !strings.Contains(strings.Join(problems, "\n"), "messages sent") {
		t.Fatalf("unexpected problems: %v", problems)
	}

	// Move phase-a's record ahead of its last round: every total still
	// equals the summary, but phase-a no longer closes its own rounds.
	tr, err = ReadTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var last, end int // phase-a's last round record and its phase record
	for i, rec := range tr.Records {
		if rec.Type == RecRound && rec.Phase == "phase-a" {
			last = i
		}
		if rec.Type == RecPhase && rec.Name == "phase-a" {
			end = i
			break
		}
	}
	tr.Records[last], tr.Records[end] = tr.Records[end], tr.Records[last]
	problems = CheckTrace(tr)
	if len(problems) == 0 {
		t.Fatal("a phase record ahead of its last round passed CheckTrace")
	}
	if !strings.Contains(problems[0], `phase "phase-a": awake node-rounds 6, its round records sum to 4`) {
		t.Fatalf("unexpected problems: %v", problems)
	}
}

// TestStageFields: engine stage times survive a round trip, Summarize
// totals them with the wall time and messages of the rounds that carry
// them, Canonical strips them, and CheckTrace rejects a round whose
// stages sum past its wall time.
func TestStageFields(t *testing.T) {
	var buf bytes.Buffer
	w := NewTraceWriter(&buf, nil)
	w.PhaseStart("p")
	w.Round(RoundStats{Awake: 4, MsgsSent: 8, ComposeNS: 10, RouteNS: 40, DeliverNS: 30, ScheduleNS: 20, WallNS: 100})
	w.Round(RoundStats{Round: 1, Awake: 2}) // a round with no stages, like a phase-boundary sync
	w.PhaseEnd(PhaseStats{Name: "p", Rounds: 2, Awake: 6, MsgsSent: 8, WallNS: 100})
	w.Summary(SummaryStats{Rounds: 2, AwakeTotal: 6, MsgsSent: 8})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := StageTotals{Rounds: 1, ComposeNS: 10, RouteNS: 40, DeliverNS: 30, ScheduleNS: 20, WallNS: 100, MsgsSent: 8}
	if got := Summarize(tr).Stages; got != want {
		t.Fatalf("stage totals %+v, want %+v", got, want)
	}
	if problems := CheckTrace(tr); len(problems) != 0 {
		t.Fatalf("CheckTrace: %v", problems)
	}
	b, err := CanonicalBytes(Canonical(tr))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"compose_ns", "route_ns", "deliver_ns", "schedule_ns"} {
		if bytes.Contains(b, []byte(f)) {
			t.Fatalf("canonical bytes still mention %s", f)
		}
	}
	for i := range tr.Records {
		if tr.Records[i].Type == RecRound {
			tr.Records[i].WallNS = 99
			break
		}
	}
	problems := CheckTrace(tr)
	if len(problems) != 1 || !strings.Contains(problems[0], "stage times sum to 100 ns, over its wall_ns 99") {
		t.Fatalf("problems %q, want the stage overrun", problems)
	}
}

// TestReadTraceAcceptsOlderSchema: a version 1 trace, written before
// rounds carried stage times, still reads and checks.
func TestReadTraceAcceptsOlderSchema(t *testing.T) {
	v1 := `{"type":"header","schema_version":1}
{"type":"phase_start","name":"p"}
{"type":"round","phase":"p","seq":1,"awake":2,"msgs_sent":2,"wall_ns":50}
{"type":"phase","name":"p","rounds":1,"awake":2,"msgs_sent":2}
{"type":"summary","rounds":1,"awake":2,"msgs_sent":2}
`
	tr, err := ReadTrace(strings.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	if problems := CheckTrace(tr); len(problems) != 0 {
		t.Fatalf("CheckTrace: %v", problems)
	}
	if st := Summarize(tr).Stages; st.Rounds != 0 {
		t.Fatalf("v1 trace has stage totals %+v", st)
	}
}

func TestReadTraceRejectsBadHeader(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader(`{"type":"round","seq":1}` + "\n")); err == nil {
		t.Fatal("trace without header accepted")
	}
	if _, err := ReadTrace(strings.NewReader(`{"type":"header","schema_version":99}` + "\n")); err == nil {
		t.Fatal("future schema version accepted")
	}
	if _, err := ReadTrace(strings.NewReader("")); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestCanonicalStripsWallTime(t *testing.T) {
	data := writeSample(t)
	tr, err := ReadTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	recs := Canonical(tr)
	for _, r := range recs {
		if r.WallNS != 0 {
			t.Fatalf("wall_ns survived canonicalization: %+v", r)
		}
	}
	a, err := CanonicalBytes(recs)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(a, []byte("wall_ns")) {
		t.Fatal("canonical bytes still mention wall_ns")
	}
	// Canonicalizing twice is stable.
	b, err := CanonicalBytes(recs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("CanonicalBytes not deterministic")
	}
}

func TestSummarizeAndTopPhases(t *testing.T) {
	tr, err := ReadTrace(bytes.NewReader(writeSample(t)))
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(tr)
	if s.N != 8 || s.RoundCount != 3 || s.PeakAwake != 4 {
		t.Fatalf("summary digest: n=%d rounds=%d peak=%d", s.N, s.RoundCount, s.PeakAwake)
	}
	if len(s.Phases) != 2 || s.Phases[0].Name != "phase-a" {
		t.Fatalf("phases: %+v", s.Phases)
	}
	top := TopPhases(s, 1)
	if len(top) != 1 || top[0].Name != "phase-a" || top[0].Awake != 6 {
		t.Fatalf("top phases: %+v", top)
	}
	if spark := Sparkline(s, 10); spark == "" {
		t.Fatal("empty sparkline")
	}
}

func TestDiff(t *testing.T) {
	tr, err := ReadTrace(bytes.NewReader(writeSample(t)))
	if err != nil {
		t.Fatal(err)
	}
	a := Summarize(tr)
	b := Summarize(tr)
	b.Phases = append([]PhaseAgg{}, a.Phases...)
	b.Phases[0].Rounds += 5
	b.Phases = append(b.Phases, PhaseAgg{Name: "phase-c", Rounds: 1, Awake: 1})
	d := Diff(a, b)
	if len(d.Phases) != 3 {
		t.Fatalf("diff phases: %+v", d.Phases)
	}
	if d.Phases[0].Rounds[1]-d.Phases[0].Rounds[0] != 5 {
		t.Fatalf("phase-a rounds delta: %+v", d.Phases[0])
	}
	last := d.Phases[2]
	if last.Name != "phase-c" || last.InA || !last.InB {
		t.Fatalf("b-only phase: %+v", last)
	}
}

func TestWriteCurveCSV(t *testing.T) {
	tr, err := ReadTrace(bytes.NewReader(writeSample(t)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCurveCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 { // header + 3 rounds
		t.Fatalf("csv lines: %q", lines)
	}
	if !strings.HasPrefix(lines[1], "1,phase-a,0,4,0.500000,8,") {
		t.Fatalf("csv row: %q", lines[1])
	}
}

func TestMultiTracer(t *testing.T) {
	if got := Multi(nil, nil); got != nil {
		t.Fatalf("Multi(nil, nil) = %v, want nil", got)
	}
	var a, b bytes.Buffer
	wa, wb := NewTraceWriter(&a, nil), NewTraceWriter(&b, nil)
	if got := Multi(nil, wa); got != Tracer(wa) {
		t.Fatal("Multi with one non-nil tracer should return it unwrapped")
	}
	m := Multi(wa, wb)
	m.PhaseStart("p")
	m.Round(RoundStats{Awake: 3, MsgsSent: 4})
	m.PhaseEnd(PhaseStats{Name: "p", Rounds: 1, Awake: 3, MsgsSent: 4})
	for _, w := range []*TraceWriter{wa, wb} {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Contains(a.Bytes(), []byte(`"phase":"p"`)) {
		t.Fatal("writer missed the fanned-out round")
	}
	// Both sinks saw the same events in the same order: their bytes match.
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("fanned-out traces differ:\n%s\nwant:\n%s", b.Bytes(), a.Bytes())
	}
}
