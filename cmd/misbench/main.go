package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	// The measured code is single-threaded (Workers: 0). A second P only
	// lets the garbage collector's mark work run on a core that other
	// tenants share, which doubled the run-to-run spread of the
	// allocation-heavy static-alg1 on the sizing host; one P keeps that
	// work inline, where every run pays it alike.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// benchSpec is the part of BENCHMARK.json the command reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// env identifies the host and toolchain a results file was measured on.
type env struct {
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
}

// workloadResult is one workload's outcome in a results file.
type workloadResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Mismatch  string            `json:"mismatch,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// results is the file -out writes and -compare reads.
type results struct {
	Seed      uint64                     `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Reps      int                        `json:"reps"`
	Traced    bool                       `json:"traced"`
	Env       env                        `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("misbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload and end with the one-line JSON result")
	seed := fs.Uint64("seed", 1, "input seed: derives every graph, stream and run seed")
	seconds := fs.Float64("seconds", 10, "run length per workload: sets its fixed op count, seconds × the workload's nominal rate")
	trace := fs.Int("trace", 0, "1 = traced run: report per-layer metrics instead of end-to-end ones")
	traced := fs.Bool("traced", false, "same as -trace 1")
	out := fs.String("out", "", "write the results (traced: the layer metrics) as JSON to this file")
	spansPath := fs.String("spans", "", "traced run: write the spans of the first traced ops as JSON lines to this file")
	compare := fs.Bool("compare", false, "compare two results files: -compare base.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec("")
	if err != nil {
		fmt.Fprintln(stderr, "misbench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "misbench: -compare needs two results files: base.json new.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), spec, stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "misbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "misbench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "misbench: -seconds must be positive")
		return 2
	}
	cfg := config{seed: *seed, reps: repsPerRun, traced: *traced || *trace == 1}
	if *spansPath != "" {
		cfg.keepOps = 4
	}
	all := workloads(fullSizes)
	selected := all
	if *name != "" {
		w, err := findWorkload(all, *name)
		if err != nil {
			fmt.Fprintln(stderr, "misbench:", err)
			return 2
		}
		selected = []workload{w}
	}

	res := &results{Seed: *seed, Seconds: *seconds, Reps: repsPerRun, Traced: cfg.traced, Workloads: map[string]*workloadResult{}}
	var spans []span
	ok := true
	for _, w := range selected {
		cfg.ops = int(math.Ceil(*seconds * w.rate))
		rs, err := measure(w, cfg)
		if err != nil {
			fmt.Fprintln(stderr, "misbench:", err)
			return 1
		}
		wr := summarize(rs, cfg.traced)
		res.Workloads[w.name] = wr
		ok = ok && wr.Correct
		printMetrics(stdout, w.name, wr)
		if wr.Mismatch != "" {
			fmt.Fprintf(stderr, "misbench: %s: %s\n", w.name, wr.Mismatch)
		}
		if tr := rs[0].tr; tr != nil {
			for _, s := range tr.spans {
				s.Workload = w.name
				spans = append(spans, s)
			}
		}
	}
	if *out != "" {
		res.Env = hostEnv()
		if err := writeJSON(*out, res); err != nil {
			fmt.Fprintln(stderr, "misbench:", err)
			return 1
		}
	}
	if *spansPath != "" {
		if err := writeSpans(*spansPath, spans); err != nil {
			fmt.Fprintln(stderr, "misbench:", err)
			return 1
		}
	}
	if *name != "" {
		want := spec.EndToEnd
		if cfg.traced {
			want = spec.PerLayer
		}
		line, err := resultLine(res.Workloads[*name], want)
		if err != nil {
			fmt.Fprintln(stderr, "misbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, line)
	}
	if !ok {
		return 1
	}
	return 0
}

// summarize turns a workload's reps into its result.
func summarize(rs []*rep, traced bool) *workloadResult {
	wr := &workloadResult{}
	for _, r := range rs {
		wr.Attempted += r.attempted
		wr.Failed += r.failed
		if r.mismatch != "" && wr.Mismatch == "" {
			wr.Mismatch = r.mismatch
		}
	}
	wr.Correct = wr.Failed == 0 && wr.Mismatch == ""
	dyn := rs[0].c.updates > 0
	if traced {
		wr.Metrics = perLayer(rs, dyn)
	} else {
		wr.Metrics = endToEnd(rs, dyn)
	}
	return wr
}

// printMetrics prints one "workload metric value unit" line per metric,
// with the sample count of timings.
func printMetrics(w io.Writer, name string, wr *workloadResult) {
	keys := make([]string, 0, len(wr.Metrics))
	for k := range wr.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := wr.Metrics[k]
		line := fmt.Sprintf("%s %s %.6g %s", name, k, m.Value, m.Unit)
		if m.Samples > 0 {
			line += fmt.Sprintf(" (n=%d)", m.Samples)
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%s correct=%t attempted=%d failed=%d\n", name, wr.Correct, wr.Attempted, wr.Failed)
}

// resultLine renders the one-line JSON result with exactly the metrics
// BENCHMARK.json lists; a listed metric the run did not produce is an error.
func resultLine(wr *workloadResult, want []specMetric) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Correct, wr.Attempted, wr.Failed, map[string]value{}}
	for _, sm := range want {
		m, ok := wr.Metrics[sm.Name]
		if !ok {
			return "", fmt.Errorf("metric %s listed in BENCHMARK.json was not measured", sm.Name)
		}
		if m.Unit != sm.Unit {
			return "", fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", sm.Name, m.Unit, sm.Unit)
		}
		out.Metrics[sm.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// loadSpec reads BENCHMARK.json from path, or from the nearest directory
// at or above the working directory that has one.
func loadSpec(path string) (*benchSpec, error) {
	if path == "" {
		dir, err := os.Getwd()
		if err != nil {
			return nil, err
		}
		for {
			p := filepath.Join(dir, "BENCHMARK.json")
			if _, err := os.Stat(p); err == nil {
				path = p
				break
			}
			parent := filepath.Dir(dir)
			if parent == dir {
				return nil, errors.New("no BENCHMARK.json in the working directory or its parents; run misbench inside the repository")
			}
			dir = parent
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func hostEnv() env {
	e := env{GoVersion: runtime.Version(), GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Commit: "unknown"}
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(b))
	}
	return e
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
