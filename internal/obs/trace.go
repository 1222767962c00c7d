package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// TraceSchemaVersion identifies the JSONL trace layout. Bump when records
// change; ReadTrace refuses newer versions and reads every older one.
// Version 2 adds the engine stage fields of round records (compose_ns,
// route_ns, deliver_ns, schedule_ns); a version 1 trace reads as one whose
// rounds carry none.
const TraceSchemaVersion = 2

// Record types, in the order they may appear in a trace.
const (
	RecHeader     = "header"      // first line: schema version, env, run metadata
	RecPhaseStart = "phase_start" // a phase span opens
	RecRound      = "round"       // one executed round's counter deltas
	RecPhase      = "phase"       // a phase span closes, with its aggregates
	RecSummary    = "summary"     // last line: the run's authoritative totals
)

// TraceEnv records where a trace or a TWIN_MIS.json baseline was
// produced. All fields are stable on one host, so they do not disturb
// trace determinism.
type TraceEnv struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit,omitempty"`
}

// Record is one JSONL trace line. Type discriminates which fields are
// meaningful; zero-valued fields are omitted on the wire and read back as
// zero, so omission is lossless. WallNS and the round stage times are the
// only volatile fields — every other field is deterministic in (graph,
// algorithm, seed, config); see Canonical.
type Record struct {
	Type string `json:"type"`

	// Header fields.
	SchemaVersion int               `json:"schema_version,omitempty"`
	Env           *TraceEnv         `json:"env,omitempty"`
	Meta          map[string]string `json:"meta,omitempty"`

	// Span fields (phase_start, phase).
	Name string `json:"name,omitempty"`

	// Round fields. Seq is a 1-based global sequence number over all round
	// records (engine-local Round indices restart per phase); Phase is the
	// innermost open span.
	Phase string `json:"phase,omitempty"`
	Seq   int    `json:"seq,omitempty"`
	Round int    `json:"round,omitempty"`

	// Counters. In a round record, Awake is the awake-node count of that
	// round; in a phase or summary record it is awake node-rounds (energy).
	Awake       int64   `json:"awake,omitempty"`
	Rounds      int     `json:"rounds,omitempty"`
	MsgsSent    int64   `json:"msgs_sent,omitempty"`
	MsgsDropped int64   `json:"msgs_dropped,omitempty"`
	Bits        int64   `json:"bits,omitempty"`
	Violations  int64   `json:"violations,omitempty"`
	Residual    int     `json:"residual,omitempty"`
	MaxAwake    int     `json:"max_awake,omitempty"`
	AvgAwake    float64 `json:"avg_awake,omitempty"`
	P99Awake    int     `json:"p99_awake,omitempty"`
	BitsMax     int     `json:"bits_max,omitempty"`
	MISSize     int     `json:"mis_size,omitempty"`

	// Dynamic-repair summary fields (energymis.DynamicMIS.Close): repair
	// region component counts and the batch engine's word-sweep counter.
	// Zero (and omitted) for static runs. Readers ignore unknown keys, so
	// older traces that still carry pack_builds, pack_hits or
	// overlap_windows read and check unchanged.
	Components    int64 `json:"components,omitempty"`
	MaxComponents int   `json:"max_components,omitempty"`
	SweepWords    int64 `json:"sweep_words,omitempty"`

	// Engine stage times of a round record (see RoundStats); they sum to
	// at most WallNS. Absent from rounds that do not come from the engine
	// and from schema version 1 traces.
	ComposeNS  int64 `json:"compose_ns,omitempty"`
	RouteNS    int64 `json:"route_ns,omitempty"`
	DeliverNS  int64 `json:"deliver_ns,omitempty"`
	ScheduleNS int64 `json:"schedule_ns,omitempty"`

	WallNS int64 `json:"wall_ns,omitempty"`
}

var (
	envOnce   sync.Once
	cachedEnv TraceEnv
)

// CaptureEnv returns the host environment stamped into trace headers. The
// commit hash is best-effort (empty outside a git checkout) and computed
// once per process.
func CaptureEnv() TraceEnv {
	envOnce.Do(func() {
		cachedEnv = TraceEnv{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		}
		if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			cachedEnv.Commit = strings.TrimSpace(string(out))
		}
	})
	return cachedEnv
}

// TraceWriter streams a run trace as JSONL. It implements Tracer; attach
// it to a run via sim.Config.Tracer (or energymis.Options.TracePath, which
// constructs one), call Summary with the finished run's totals, and Close.
// Writes are buffered; the first error sticks and is reported by Close.
type TraceWriter struct {
	bw    *bufio.Writer
	c     io.Closer
	phase string
	seq   int
	start time.Time
	err   error
}

// NewTraceWriter writes a trace to w, emitting the header immediately.
// meta carries run identification (algorithm, n, seed, ...); the "n" key,
// when present, lets analyzers compute awake fractions. If w is an
// io.Closer, Close closes it.
func NewTraceWriter(w io.Writer, meta map[string]string) *TraceWriter {
	t := &TraceWriter{bw: bufio.NewWriter(w), start: time.Now()}
	if c, ok := w.(io.Closer); ok {
		t.c = c
	}
	env := CaptureEnv()
	t.emit(Record{Type: RecHeader, SchemaVersion: TraceSchemaVersion, Env: &env, Meta: meta})
	return t
}

// CreateTrace creates (truncating) the file at path and returns a trace
// writer over it.
func CreateTrace(path string, meta map[string]string) (*TraceWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: creating trace: %w", err)
	}
	return NewTraceWriter(f, meta), nil
}

func (t *TraceWriter) emit(r Record) {
	if t.err != nil {
		return
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.err = err
		return
	}
	if _, err := t.bw.Write(append(data, '\n')); err != nil {
		t.err = err
	}
}

// PhaseStart implements Tracer.
func (t *TraceWriter) PhaseStart(name string) {
	t.phase = name
	t.emit(Record{Type: RecPhaseStart, Name: name})
}

// Round implements Tracer.
func (t *TraceWriter) Round(r RoundStats) {
	t.seq++
	t.emit(Record{
		Type: RecRound, Phase: t.phase, Seq: t.seq, Round: r.Round,
		Awake: int64(r.Awake), MsgsSent: r.MsgsSent, MsgsDropped: r.MsgsDropped,
		Bits: r.Bits, Violations: r.Violations,
		ComposeNS: r.ComposeNS, RouteNS: r.RouteNS, DeliverNS: r.DeliverNS,
		ScheduleNS: r.ScheduleNS, WallNS: r.WallNS,
	})
}

// PhaseEnd implements Tracer.
func (t *TraceWriter) PhaseEnd(p PhaseStats) {
	t.emit(Record{
		Type: RecPhase, Name: p.Name, Rounds: p.Rounds, Awake: p.Awake,
		MsgsSent: p.MsgsSent, MsgsDropped: p.MsgsDropped, Bits: p.Bits,
		Violations: p.Violations, Residual: p.Residual, WallNS: p.WallNS,
	})
}

// Summary writes the closing totals record. Call it once, after the run,
// with totals taken from the run's Result.
func (t *TraceWriter) Summary(s SummaryStats) {
	t.emit(Record{
		Type: RecSummary, Rounds: s.Rounds, Awake: s.AwakeTotal,
		MaxAwake: s.MaxAwake, AvgAwake: s.AvgAwake, P99Awake: s.P99Awake,
		MsgsSent: s.MsgsSent, MsgsDropped: s.MsgsDropped, Bits: s.BitsTotal,
		BitsMax: s.BitsMax, Violations: s.Violations, MISSize: s.MISSize,
		Components: s.Components, MaxComponents: s.MaxComponents,
		SweepWords: s.SweepWords,
		WallNS:     time.Since(t.start).Nanoseconds(),
	})
}

// Err returns the first write or encoding error, if any.
func (t *TraceWriter) Err() error { return t.err }

// Close flushes the buffer and closes the underlying file, returning the
// first error encountered over the writer's lifetime.
func (t *TraceWriter) Close() error {
	if err := t.bw.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	if t.c != nil {
		if err := t.c.Close(); err != nil && t.err == nil {
			t.err = err
		}
	}
	return t.err
}

// Trace is a fully parsed run trace.
type Trace struct {
	Header  Record
	Records []Record // every record in file order, header included
}

// ReadTrace parses a JSONL trace. The first record must be a header with a
// schema version this package speaks.
func ReadTrace(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	t := &Trace{}
	line := 0
	for sc.Scan() {
		line++
		raw := strings.TrimSpace(sc.Text())
		if raw == "" {
			continue
		}
		var rec Record
		if err := json.Unmarshal([]byte(raw), &rec); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		if len(t.Records) == 0 {
			if rec.Type != RecHeader {
				return nil, fmt.Errorf("obs: trace does not start with a header record (got %q)", rec.Type)
			}
			if rec.SchemaVersion > TraceSchemaVersion || rec.SchemaVersion < 1 {
				return nil, fmt.Errorf("obs: trace has schema version %d, this binary speaks %d",
					rec.SchemaVersion, TraceSchemaVersion)
			}
			t.Header = rec
		}
		t.Records = append(t.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading trace: %w", err)
	}
	if len(t.Records) == 0 {
		return nil, fmt.Errorf("obs: empty trace")
	}
	return t, nil
}

// ReadTraceFile loads the trace at path.
func ReadTraceFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("obs: opening trace: %w", err)
	}
	defer f.Close()
	return ReadTrace(f)
}

// MetaInt returns the named header metadata value as an int (0 when
// missing or non-numeric), e.g. MetaInt("n") for the node count.
func (t *Trace) MetaInt(key string) int {
	v, err := strconv.Atoi(t.Header.Meta[key])
	if err != nil {
		return 0
	}
	return v
}

// Summary returns the trace's summary record, or nil.
func (t *Trace) Summary() *Record {
	for i := len(t.Records) - 1; i >= 0; i-- {
		if t.Records[i].Type == RecSummary {
			return &t.Records[i]
		}
	}
	return nil
}

// Canonical returns the trace's records with every volatile field — wall
// time and the round stage times — zeroed. Two runs with identical
// (graph, algorithm, seed, config) produce Canonical-equal traces
// regardless of machine load; CanonicalBytes gives the byte form for
// direct comparison.
func Canonical(t *Trace) []Record {
	out := make([]Record, len(t.Records))
	copy(out, t.Records)
	for i := range out {
		out[i].WallNS = 0
		out[i].ComposeNS, out[i].RouteNS, out[i].DeliverNS, out[i].ScheduleNS = 0, 0, 0, 0
	}
	return out
}

// CanonicalBytes marshals records one per line, for byte-level trace
// comparison (see Canonical).
func CanonicalBytes(recs []Record) ([]byte, error) {
	var b strings.Builder
	for _, r := range recs {
		data, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		b.Write(data)
		b.WriteByte('\n')
	}
	return []byte(b.String()), nil
}
