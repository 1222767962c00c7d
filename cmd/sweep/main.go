// Command sweep regenerates the paper-reproduction experiments (E1–E10),
// the ablations (A1–A4), the dynamic-MIS experiments (D1–D3, D5), the
// analytical-twin fit (F1), and the unit-disk scenario (G1), printing
// each as a markdown table (see the registry below for what each one
// measures).
//
// Usage:
//
//	sweep -e all
//	sweep -e E1,E4,E9,D1 -seeds 3 -scale 1
//	sweep -e E1 -scale 0.25 -trace traces/   (one JSONL run trace per measured run)
//	sweep -e D3 -csv out/                    (plot-ready CSV next to the table)
//
// -scale shrinks the instance sizes (0.25, 0.5, 1) to trade fidelity for
// runtime.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	var (
		expts    = flag.String("e", "all", "comma-separated experiment IDs (E1..E10, A1..A4, D1..D3, D5, F1, G1, all)")
		seeds    = flag.Int("seeds", 3, "seeds per configuration")
		scale    = flag.Float64("scale", 1, "instance-size multiplier")
		traceDir = flag.String("trace", "", "write one JSONL run trace per measured run into this directory (see cmd/mistrace)")
		csvDir   = flag.String("csv", "", "write plot-ready CSV files for experiments that emit them into this directory")
	)
	flag.Parse()
	if *seeds < 1 {
		fmt.Fprintln(os.Stderr, "sweep: -seeds must be at least 1")
		os.Exit(1)
	}
	if !(*scale > 0) { // also rejects NaN
		fmt.Fprintln(os.Stderr, "sweep: -scale must be positive")
		os.Exit(1)
	}

	for _, dir := range []string{*traceDir, *csvDir} {
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
	}

	registry := []experiment{
		{"E1", "Comparison table: time and energy of all algorithms", runE1},
		{"E2", "Theorem 1.1 scaling: Algorithm 1 rounds and awake vs n", runE2},
		{"E3", "Theorem 1.2 scaling: Algorithm 2 rounds and awake vs n", runE3},
		{"E4", "Lemma 2.1: Phase I residual degree = O(log² n)", runE4},
		{"E5", "Lemma 2.5: awake-schedule size and property", runE5},
		{"E6", "Lemma 2.6: shattering leaves small components", runE6},
		{"E7", "Lemma 2.8: merge iterations, tree depth, awake rounds", runE7},
		{"E8", "Lemma 3.1: per-iteration degree drop Δ -> Δ^0.7", runE8},
		{"E9", "Section 4: node-averaged energy is O(1)", runE9},
		{"E10", "CONGEST compliance: message sizes <= B", runE10},
		{"A1", "Ablation: one-shot marking off (energy blow-up)", runA1},
		{"A2", "Ablation: finisher executions K = 1 vs Θ(log n)", runA2},
		{"A3", "Ablation: indegree threshold in Lemma 2.8", runA3},
		{"A4", "Ablation: Cole–Vishkin palette trajectory per mode", runA4},
		{"D1", "Dynamic MIS: localized repair vs per-update recompute", runD1},
		{"D2", "Dynamic MIS: repair cost across update-stream classes", runD2},
		{"D3", "Dynamic MIS: updates/sec vs batch window across stream classes", runD3},
		{"D5", "Dynamic MIS: updates/sec vs graph size", runD5},
		{"F1", "Analytical twin: fit paper curves from a multi-size sweep", runF1},
		{"G1", "Unit-disk sensor field: fixed radius, growing density", runG1},
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*expts, ",") {
		want[strings.ToUpper(strings.TrimSpace(id))] = true
	}
	all := want["ALL"]

	cfg := sweepConfig{seeds: *seeds, scale: *scale, traceDir: *traceDir, csvDir: *csvDir}
	ran := 0
	for _, e := range registry {
		if !all && !want[e.id] {
			continue
		}
		fmt.Printf("## %s — %s\n\n", e.id, e.desc)
		if err := e.fn(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.id, err)
			os.Exit(1)
		}
		fmt.Println()
		ran++
	}
	if ran == 0 {
		fmt.Fprintln(os.Stderr, "no experiments matched; use -e all or E1..E10, A1..A4, D1..D3, D5, F1, G1")
		os.Exit(1)
	}
}

type sweepConfig struct {
	seeds    int
	scale    float64
	traceDir string // when set, measure() writes one JSONL trace per run here
	csvDir   string // when set, experiments with CSV output write it here
}

// writeCSV saves one experiment's rows as <csvDir>/<name>; a no-op when
// -csv was not given.
func (c sweepConfig) writeCSV(name string, headers []string, rows [][]string) error {
	if c.csvDir == "" {
		return nil
	}
	path := filepath.Join(c.csvDir, name)
	var b strings.Builder
	b.WriteString(strings.Join(headers, ",") + "\n")
	for _, r := range rows {
		b.WriteString(strings.Join(r, ",") + "\n")
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return err
	}
	fmt.Printf("(wrote %s)\n", path)
	return nil
}

func (c sweepConfig) n(base int) int {
	n := int(float64(base) * c.scale)
	if n < 64 {
		n = 64
	}
	return n
}

type experiment struct {
	id   string
	desc string
	fn   func(sweepConfig) error
}

// table prints a markdown table.
func table(headers []string, rows [][]string) {
	fmt.Println("| " + strings.Join(headers, " | ") + " |")
	seps := make([]string, len(headers))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Println("| " + strings.Join(seps, " | ") + " |")
	for _, r := range rows {
		fmt.Println("| " + strings.Join(r, " | ") + " |")
	}
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func i0(v int) string     { return fmt.Sprintf("%d", v) }
