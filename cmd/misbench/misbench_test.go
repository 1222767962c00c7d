package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	energymis "github.com/energymis/energymis"
	"github.com/energymis/energymis/internal/core"
	"github.com/energymis/energymis/internal/obs"
)

// tinySizes shrink every workload so the whole suite runs in a few seconds.
var tinySizes = workloadSizes{
	gnpN: 600, baN: 500, churnN: 2000, hubN: 1000,
	churnWindows: 20, churnWidth: 16,
	hubBatches: 20, hubInstances: 2,
}

func quick(seed uint64, traced bool) config {
	return config{seed: seed, ops: 4, reps: 2, traced: traced}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0, 1}, {10, 1}, {50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10}} {
		got, n := percentile(xs, c.p)
		if got != c.want || n != len(xs) {
			t.Errorf("percentile(1..10, %v) = %v (n=%d), want %v (n=10)", c.p, got, n, c.want)
		}
	}
	if v, n := percentile(nil, 50); v != 0 || n != 0 {
		t.Errorf("percentile(empty) = %v (n=%d), want 0 (n=0)", v, n)
	}
	// 200 samples: p99 is the 198th smallest, leaving two beyond it.
	var many []float64
	for i := 1; i <= 200; i++ {
		many = append(many, float64(i))
	}
	if v, n := percentile(many, 99); v != 198 || n != 200 {
		t.Errorf("percentile(1..200, 99) = %v (n=%d), want 198 (n=200)", v, n)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) for these inputs.
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1}, 0, 6}, // the exclusive method extrapolates
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestTracerConservation checks both clocks and the round counters of the
// benchmark's tracer against the program's own totals.
func TestTracerConservation(t *testing.T) {
	gnp := energymis.GNP(2000, 10.0/2000, 5)
	for _, c := range []struct {
		algo  energymis.Algorithm
		g     *energymis.Graph
		layer string
	}{
		{energymis.Algorithm1, gnp, "phase1"},
		{energymis.Algorithm2, energymis.BarabasiAlbert(2000, 5, 5), "degreduce"},
		{energymis.Luby, gnp, "luby"},
	} {
		tr := newTracer(1)
		adv := core.DefaultOptions()
		adv.Tracer = tr
		mem := energymis.NewMem()
		var awake int64
		for seed := uint64(1); seed <= 3; seed++ {
			tr.beginOp()
			start := time.Now()
			res, err := energymis.Run(c.g, c.algo, energymis.Options{Seed: seed, Mem: mem, Advanced: &adv})
			tr.endOp(since(start))
			if err != nil {
				t.Fatalf("%s: %v", c.algo, err)
			}
			awake += res.AwakeTotal
		}
		var phaseNS int64
		for _, a := range tr.layers {
			phaseNS += a.spanNS
		}
		if e := conservationErr(phaseNS, tr.coveredNS, tr.opNS); math.Abs(e) > 0.02 {
			t.Errorf("%s: phase spans + glue differ from the run time by %.2f%%", c.algo, 100*e)
		}
		if tr.awakeAll != awake {
			t.Errorf("%s: Σ round Awake = %d, Σ Result.AwakeTotal = %d", c.algo, tr.awakeAll, awake)
		}
		if tr.layers[c.layer] == nil {
			t.Errorf("%s: no %s spans; layers %v", c.algo, c.layer, tr.layers)
		}
		// The kept op's self time is the glue: its duration minus its phases.
		op := tr.spans[0]
		var phases int64
		for _, s := range tr.spans {
			if s.Parent == op.ID {
				phases += s.DurNS
			}
		}
		if op.Kind != "op" || op.SelfNS != op.DurNS-phases || op.SelfNS < 0 {
			t.Errorf("%s: op span %+v, children sum %d", c.algo, op, phases)
		}
	}
}

// TestTracedDynamicMatchesUntraced replays each dynamic workload through
// the untraced root API and the traced internal engine: every counter
// must be identical, and the trace's round events must sum to the engine's
// awake total.
func TestTracedDynamicMatchesUntraced(t *testing.T) {
	for _, w := range workloads(tinySizes)[3:] {
		run, _, err := w.setup(7, 0)
		if err != nil {
			t.Fatal(err)
		}
		d := run.(*dynRunner)
		pass := func(tr *tracer) energymis.DynamicStats {
			var hook obs.Tracer
			if tr != nil {
				tr.beginOp()
				hook = tr
			}
			k, err := d.startPass(0, hook)
			if err != nil {
				t.Fatal(err)
			}
			var c counters
			for i := 0; i < k; i++ {
				if err := d.op(i, nil, &c); err != nil {
					t.Fatalf("%s op %d: %v", w.name, i, err)
				}
			}
			if err := d.endPass(&c); err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if tr != nil {
				tr.endOp(1)
			}
			return d.eng.Stats()
		}
		plain := pass(nil)
		tr := newTracer(0)
		traced := pass(tr)
		if plain != traced {
			t.Errorf("%s: traced stats %+v differ from untraced %+v", w.name, traced, plain)
		}
		if tr.awakeAll != traced.AwakeTotal {
			t.Errorf("%s: Σ round Awake = %d, Stats().AwakeTotal = %d", w.name, tr.awakeAll, traced.AwakeTotal)
		}
		if plain.Elections == 0 {
			t.Errorf("%s: no elections; the workload exercises nothing", w.name)
		}
	}
}

func loadRepoSpec(t *testing.T) *benchSpec {
	t.Helper()
	s, err := loadSpec(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWorkloadsSmoke runs every workload constructor at tiny sizes, traced
// and untraced, and checks that each produces every metric BENCHMARK.json
// lists, with its unit, and fails no op.
func TestWorkloadsSmoke(t *testing.T) {
	spec := loadRepoSpec(t)
	for _, w := range workloads(tinySizes) {
		for _, traced := range []bool{false, true} {
			rs, err := measure(w, quick(1, traced))
			if err != nil {
				t.Fatal(err)
			}
			wr := summarize(rs, traced)
			if !wr.Correct || wr.Failed != 0 || wr.Attempted == 0 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d %s", w.name, traced, wr.Correct, wr.Attempted, wr.Failed, wr.Mismatch)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			} else if ff := wr.Metrics["fail_frac"]; ff.Value != 0 {
				t.Errorf("%s: fail_frac = %v", w.name, ff.Value)
			}
			line, err := resultLine(wr, want)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			var parsed struct {
				Correct bool                       `json:"correct"`
				Metrics map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(line), &parsed); err != nil || !parsed.Correct || len(parsed.Metrics) != len(want) {
				t.Errorf("%s traced=%t: result line %s (err %v)", w.name, traced, line, err)
			}
			if !traced {
				for _, sm := range spec.EndToEnd {
					if wr.Metrics[sm.Name].Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", w.name, sm.Name)
					}
				}
			}
		}
	}
}

// TestSeedChangesEveryInput checks that -seed reaches the graph, stream
// and run seeds: a different seed gives different deterministic counters,
// and both seeds still pass every check.
func TestSeedChangesEveryInput(t *testing.T) {
	for _, w := range workloads(tinySizes) {
		var got []counters
		for _, seed := range []uint64{1, 2, 1} {
			rs, err := measure(w, quick(seed, false))
			if err != nil {
				t.Fatal(err)
			}
			if wr := summarize(rs, false); !wr.Correct {
				t.Fatalf("%s seed %d: failed=%d %s", w.name, seed, wr.Failed, wr.Mismatch)
			}
			got = append(got, total(rs))
		}
		if got[0] == got[1] {
			t.Errorf("%s: seeds 1 and 2 gave identical counters %+v", w.name, got[0])
		}
		if got[0] != got[2] {
			t.Errorf("%s: seed 1 gave counters %+v, then %+v", w.name, got[0], got[2])
		}
	}
	if mix(1, "graph") == mix(2, "graph") || mix(1, "graph") == mix(1, "stream") {
		t.Error("mix does not separate seeds or tags")
	}
}

// TestRepeatedPassesRepeatCounters runs several passes per rep: every
// pass must reproduce the first one's counters, and a runner whose passes
// drift is reported.
func TestRepeatedPassesRepeatCounters(t *testing.T) {
	w := workloads(tinySizes)[4]
	rs, err := measure(w, config{seed: 3, ops: 200, reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if wr, passes := summarize(rs, false), total(rs).passes; !wr.Correct || passes < 8 {
		t.Fatalf("passes=%d correct=%t mismatch=%q", passes, wr.Correct, wr.Mismatch)
	}

	drift := workload{name: "drift", setup: func(uint64, int) (runner, setupParts, error) { return &driftRunner{}, setupParts{}, nil }}
	rs, err = measure(drift, config{ops: 6, reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if wr := summarize(rs, false); wr.Correct || !strings.Contains(wr.Mismatch, "pass 1") {
		t.Errorf("drifting passes not reported: correct=%t mismatch=%q", wr.Correct, wr.Mismatch)
	}
}

// TestInvalidOutputFailsTheOp corrupts every static result before its
// check: each op must count as failed and the run as incorrect.
func TestInvalidOutputFailsTheOp(t *testing.T) {
	w := workloads(tinySizes)[1]
	corrupt := workload{name: "corrupt", setup: func(seed uint64, rep int) (runner, setupParts, error) {
		r, parts, err := w.setup(seed, rep)
		return corruptRunner{r.(*staticRunner)}, parts, err
	}}
	rs, err := measure(corrupt, quick(1, false))
	if err != nil {
		t.Fatal(err)
	}
	wr := summarize(rs, false)
	if wr.Correct || wr.Failed != wr.Attempted || wr.Metrics["fail_frac"].Value != 1 {
		t.Errorf("correct=%t attempted=%d failed=%d", wr.Correct, wr.Attempted, wr.Failed)
	}
}

// corruptRunner empties each run's set, which is never maximal.
type corruptRunner struct{ *staticRunner }

func (c corruptRunner) check(i int) error {
	clear(c.last.InSet)
	return c.staticRunner.check(i)
}

// driftRunner simulates one more round on every pass.
type driftRunner struct{ pass int }

func (d *driftRunner) cycle() int                { return 1 }
func (d *driftRunner) check(int) error           { return nil }
func (d *driftRunner) endPass(c *counters) error { c.passes++; return nil }
func (d *driftRunner) startPass(int, obs.Tracer) (int, error) {
	d.pass++
	return 2, nil
}
func (d *driftRunner) op(_ int, _ obs.Tracer, c *counters) error {
	c.ops++
	c.updates++
	c.rounds += int64(d.pass)
	return nil
}

func writeResults(t *testing.T, dir, name string, r *results) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := writeJSON(p, r); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCompare(t *testing.T) {
	spec := &benchSpec{EndToEnd: []specMetric{
		{Name: "op_s.p50", Unit: "s", Better: "lower", Bound: 0.1},
		{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1},
		{Name: "rounds", Unit: "rounds/op", Better: "lower", Bound: 0.05},
	}}
	host := env{GoVersion: "go1.24.0", GOARCH: "amd64", NumCPU: 2, GOMAXPROCS: 2}
	mk := func(p50, p50spread, ops, rounds float64, e env) *results {
		return &results{Seed: 1, Env: e, Workloads: map[string]*workloadResult{"w": {Correct: true, Metrics: map[string]metric{
			"op_s.p50":  {Value: p50, Unit: "s", Spread: p50spread},
			"ops_per_s": {Value: ops, Unit: "1/s"},
			"rounds":    {Value: rounds, Unit: "rounds/op"},
			"fail_frac": {Value: 0, Unit: "fraction"},
		}}}}
	}
	dir := t.TempDir()
	base := writeResults(t, dir, "base.json", mk(1.0, 0.02, 100, 50, host))
	for _, c := range []struct {
		name     string
		cur      *results
		code     int
		contains []string
	}{
		{"same", mk(1.05, 0.02, 96, 50, host), 0, []string{"op_s.p50", "same", "worse=0 unresolved=0"}},
		{"regression", mk(1.2, 0.02, 100, 50, host), 1, []string{"+20.00%", "worse=1"}},
		{"throughput regression", mk(1.0, 0.02, 80, 50, host), 1, []string{"worse=1"}},
		{"counter drift at equal seed", mk(1.0, 0.02, 100, 50.5, host), 1, []string{"worse=1"}},
		{"better", mk(0.5, 0.02, 100, 50, host), 0, []string{"better=1"}},
	} {
		var out, errb bytes.Buffer
		code := compareFiles(base, writeResults(t, dir, "new.json", c.cur), spec, &out, &errb)
		if code != c.code {
			t.Errorf("%s: exit %d, want %d\n%s%s", c.name, code, c.code, out.String(), errb.String())
		}
		for _, s := range c.contains {
			if !strings.Contains(out.String(), s) {
				t.Errorf("%s: output lacks %q:\n%s", c.name, s, out.String())
			}
		}
	}

	// A base whose own spread exceeds the bound cannot resolve a change.
	noisy := writeResults(t, dir, "noisy.json", mk(1.0, 0.3, 100, 50, host))
	var out, errb bytes.Buffer
	if code := compareFiles(noisy, writeResults(t, dir, "new.json", mk(1.5, 0.02, 100, 50, host)), spec, &out, &errb); code != 0 ||
		!strings.Contains(out.String(), "unresolved=1") {
		t.Errorf("unresolved: exit %d\n%s", code, out.String())
	}

	// Different host classes are refused, not compared.
	other := host
	other.NumCPU = 8
	out.Reset()
	errb.Reset()
	if code := compareFiles(base, writeResults(t, dir, "new.json", mk(1.0, 0.02, 100, 50, other)), spec, &out, &errb); code != 2 ||
		!strings.Contains(errb.String(), "num_cpu 2 vs 8") || out.Len() != 0 {
		t.Errorf("env mismatch: exit %d, stdout %q, stderr %q", code, out.String(), errb.String())
	}

	// At the same seed, a different run length is different work: counters
	// are held to their bounds, not to exact equality.
	longer := mk(1.0, 0.02, 100, 50.5, host)
	longer.Seconds = 20
	out.Reset()
	if code := compareFiles(base, writeResults(t, dir, "new.json", longer), spec, &out, &errb); code != 0 ||
		!strings.Contains(out.String(), "worse=0") {
		t.Errorf("different -seconds: exit %d\n%s", code, out.String())
	}

	// A bounded metric missing from either file is a failure, not a pass.
	dropped := mk(1.0, 0.02, 100, 50, host)
	delete(dropped.Workloads["w"].Metrics, "ops_per_s")
	for _, files := range [][2]string{
		{base, writeResults(t, dir, "new.json", dropped)},
		{writeResults(t, dir, "old.json", dropped), writeResults(t, dir, "cur.json", mk(1.0, 0.02, 100, 50, host))},
	} {
		out.Reset()
		if code := compareFiles(files[0], files[1], spec, &out, &errb); code != 1 ||
			!strings.Contains(out.String(), "ops_per_s") || !strings.Contains(out.String(), "missing=1") {
			t.Errorf("missing metric: exit %d\n%s", code, out.String())
		}
	}
}

func TestResultLineRejectsUnknownMetric(t *testing.T) {
	wr := &workloadResult{Correct: true, Attempted: 1, Metrics: map[string]metric{"a": {Value: 1, Unit: "s"}}}
	if _, err := resultLine(wr, []specMetric{{Name: "b", Unit: "s"}}); err == nil {
		t.Error("missing metric accepted")
	}
	if _, err := resultLine(wr, []specMetric{{Name: "a", Unit: "ms"}}); err == nil {
		t.Error("unit mismatch accepted")
	}
}
