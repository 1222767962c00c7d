package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
)

// deterministic metrics count simulated work. Runs of the same work (equal
// seed, length and set-ups) must repeat them exactly, so any difference is
// a verdict, whatever the bound.
var deterministic = map[string]bool{
	"rounds": true, "awake_max": true, "awake_avg": true, "messages": true, "awake_per_update": true,
}

// verdict classifies one workload × metric pair.
func verdict(sm specMetric, base, cur metric, sameWork bool) string {
	worse := func(delta float64) bool {
		if sm.Better == "higher" {
			return delta < 0
		}
		return delta > 0
	}
	delta := cur.Value - base.Value
	switch {
	case sm.Name == "fail_frac" || (deterministic[sm.Name] && sameWork):
		if delta == 0 {
			return "same"
		}
	case base.Spread > sm.Bound:
		return "unresolved"
	case base.Value == 0:
		if delta == 0 {
			return "same"
		}
	case math.Abs(delta)/math.Abs(base.Value) <= sm.Bound:
		return "same"
	}
	if worse(delta) {
		return "worse"
	}
	return "better"
}

// compareFiles applies BENCHMARK.json's bounds to two results files of
// untraced runs on the same host class. It exits 1 on a regression and 2
// when the files cannot be compared.
func compareFiles(basePath, newPath string, spec *benchSpec, stdout, stderr io.Writer) int {
	base, err := readResults(basePath)
	if err != nil {
		fmt.Fprintln(stderr, "misbench:", err)
		return 2
	}
	cur, err := readResults(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "misbench:", err)
		return 2
	}
	if msg := envMismatch(base.Env, cur.Env); msg != "" {
		fmt.Fprintf(stderr, "misbench: refusing to compare results from different hosts or toolchains: %s\n", msg)
		return 2
	}
	if base.Traced || cur.Traced {
		fmt.Fprintln(stderr, "misbench: refusing to compare traced runs; compare the untraced results")
		return 2
	}
	// A different -seconds changes the op count and so the simulated work,
	// even at the same seed.
	sameWork := base.Seed == cur.Seed && base.Seconds == cur.Seconds && base.Reps == cur.Reps
	checked := append(slices.Clone(spec.EndToEnd), specMetric{Name: "fail_frac", Better: "lower"})
	// awake_per_update has no bound, but between runs of the same work it is
	// held to exact equality where a workload has it (dynamic only).
	if sameWork {
		checked = append(checked, specMetric{Name: "awake_per_update", Better: "lower"})
	}
	names := make([]string, 0, len(base.Workloads))
	for n := range base.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	counts := map[string]int{}
	fmt.Fprintf(stdout, "%-16s %-24s %14s %14s %9s  %s\n", "workload", "metric", "base", "new", "change", "verdict")
	for _, n := range names {
		bw, cw := base.Workloads[n], cur.Workloads[n]
		if cw == nil {
			fmt.Fprintf(stdout, "%-16s missing from %s\n", n, newPath)
			counts["missing"]++
			continue
		}
		for _, sm := range checked {
			bm, ok1 := bw.Metrics[sm.Name]
			cm, ok2 := cw.Metrics[sm.Name]
			if !ok1 || !ok2 {
				// A bounded metric must be in both files: one renamed or
				// dropped would otherwise read as no regression.
				if ok1 || ok2 || sm.Name != "awake_per_update" {
					from := newPath
					if !ok1 {
						from = basePath
					}
					fmt.Fprintf(stdout, "%-16s %-24s missing from %s\n", n, sm.Name, from)
					counts["missing"]++
				}
				continue
			}
			v := verdict(sm, bm, cm, sameWork)
			counts[v]++
			change := "n/a"
			if bm.Value != 0 {
				change = fmt.Sprintf("%+.2f%%", 100*(cm.Value-bm.Value)/math.Abs(bm.Value))
			}
			fmt.Fprintf(stdout, "%-16s %-24s %14.6g %14.6g %9s  %s\n", n, sm.Name, bm.Value, cm.Value, change, v)
		}
	}
	fmt.Fprintf(stdout, "better=%d same=%d worse=%d unresolved=%d missing=%d\n", counts["better"], counts["same"], counts["worse"], counts["unresolved"], counts["missing"])
	if counts["worse"] > 0 || counts["missing"] > 0 {
		return 1
	}
	return 0
}

func readResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// envMismatch names the first host or toolchain property that differs.
func envMismatch(a, b env) string {
	switch {
	case a.NumCPU != b.NumCPU:
		return fmt.Sprintf("num_cpu %d vs %d", a.NumCPU, b.NumCPU)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.GOARCH != b.GOARCH:
		return fmt.Sprintf("goarch %s vs %s", a.GOARCH, b.GOARCH)
	case a.GoVersion != b.GoVersion:
		return fmt.Sprintf("go version %s vs %s", a.GoVersion, b.GoVersion)
	}
	return ""
}
