package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCmd(t *testing.T, args ...string) (code int, out, errOut string) {
	t.Helper()
	var o, e bytes.Buffer
	code = run(args, &o, &e)
	return code, o.String(), e.String()
}

func TestSummaryGolden(t *testing.T) {
	code, out, errOut := runCmd(t, "summary", "testdata/golden_a.jsonl")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{
		"schema v1",
		"algorithm=algorithm1",
		"rounds=4 maxAwake=2 avgAwake=1.25 awakeTotal=10 msgs=12 dropped=1 bits=96 mis=5",
		"phase-a",
		"sync",
		"phase-b",
		"1. phase-a",
		"awake curve (4 round events, peak 4)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary output missing %q\n%s", want, out)
		}
	}
	// phase-a holds 6 of 10 awake node-rounds.
	if !strings.Contains(out, "60.0%") {
		t.Errorf("summary output missing phase-a awake share 60.0%%\n%s", out)
	}
}

func TestDiffGolden(t *testing.T) {
	code, out, errOut := runCmd(t, "diff", "testdata/golden_a.jsonl", "testdata/golden_b.jsonl")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{
		"[A only]", // phase-b exists only in A
		"[B only]", // phase-c exists only in B
		"rounds 4 → 5 (+1)",
		"awake 10 → 15 (+5)",
		"msgs 12 → 18 (+6)",
		"mis 5 → 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q\n%s", want, out)
		}
	}
}

func TestCheckGolden(t *testing.T) {
	code, out, errOut := runCmd(t, "check", "testdata/golden_a.jsonl", "testdata/golden_b.jsonl")
	if code != 0 {
		t.Fatalf("clean traces: exit %d, stderr: %s", code, errOut)
	}
	if strings.Count(out, "OK") != 2 {
		t.Errorf("want two OK lines, got:\n%s", out)
	}
}

func TestCheckCorrupt(t *testing.T) {
	code, out, _ := runCmd(t, "check", "testdata/corrupt.jsonl")
	if code != 1 {
		t.Fatalf("corrupt trace: want exit 1, got %d\n%s", code, out)
	}
	for _, want := range []string{
		"sequence gap",  // seq jumps 1 → 3
		"messages sent", // summary claims 99, records sum to 10
	} {
		if !strings.Contains(out, want) {
			t.Errorf("check output missing %q\n%s", want, out)
		}
	}
}

func TestCSV(t *testing.T) {
	code, out, errOut := runCmd(t, "csv", "testdata/golden_a.jsonl")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // header + 4 round records
		t.Fatalf("want 5 CSV lines, got %d:\n%s", len(lines), out)
	}
	if lines[0] != "seq,phase,round,awake,awake_frac,msgs_sent,msgs_dropped,bits,violations,wall_ns" {
		t.Errorf("bad CSV header: %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1,phase-a,0,4,0.500000,8,") {
		t.Errorf("bad first CSV row: %s", lines[1])
	}

	// -o writes the same bytes to a file.
	path := filepath.Join(t.TempDir(), "curve.csv")
	if code, _, errOut := runCmd(t, "csv", "-o", path, "testdata/golden_a.jsonl"); code != 0 {
		t.Fatalf("csv -o: exit %d, stderr: %s", code, errOut)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != out {
		t.Errorf("csv -o wrote different bytes than stdout")
	}
}

func TestSummaryDynamicLine(t *testing.T) {
	code, out, errOut := runCmd(t, "summary", "testdata/golden_dyn.jsonl")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	want := "dynamic: components=5 maxComponents=2 sweepWords=120\n"
	if !strings.Contains(out, want) {
		t.Errorf("summary output missing %q\n%s", want, out)
	}
	// Static traces must not grow the line.
	if _, out, _ := runCmd(t, "summary", "testdata/golden_a.jsonl"); strings.Contains(out, "dynamic:") {
		t.Errorf("static summary grew a dynamic line:\n%s", out)
	}
}

func TestCSVTotals(t *testing.T) {
	code, out, errOut := runCmd(t, "csv", "-totals", "testdata/golden_dyn.jsonl")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("want header + 1 totals row, got %d lines:\n%s", len(lines), out)
	}
	if lines[0] != "rounds,awake_total,max_awake,avg_awake,p99_awake,"+
		"msgs_sent,msgs_dropped,bits,bits_max,violations,mis_size,"+
		"components,max_components,sweep_words" {
		t.Errorf("bad totals header: %s", lines[0])
	}
	if lines[1] != "3,8,3,1.000000,3,16,0,64,32,0,4,5,2,120" {
		t.Errorf("bad totals row: %s", lines[1])
	}
	// The golden summary still carries the retired pack_builds, pack_hits
	// and overlap_windows keys: older traces must keep reading and
	// checking under the same schema version.
	if code, out, _ := runCmd(t, "check", "testdata/golden_dyn.jsonl"); code != 0 {
		t.Errorf("check rejects golden_dyn.jsonl:\n%s", out)
	}
}

func TestBadUsage(t *testing.T) {
	if code, _, _ := runCmd(t); code != 2 {
		t.Errorf("no args: want exit 2, got %d", code)
	}
	if code, _, _ := runCmd(t, "frobnicate"); code != 2 {
		t.Errorf("unknown subcommand: want exit 2, got %d", code)
	}
	if code, _, _ := runCmd(t, "summary", "testdata/nope.jsonl"); code != 2 {
		t.Errorf("missing file: want exit 2, got %d", code)
	}
	if code, _, _ := runCmd(t, "diff", "testdata/golden_a.jsonl"); code != 2 {
		t.Errorf("diff with one file: want exit 2, got %d", code)
	}
	if code, out, _ := runCmd(t, "help"); code != 0 || !strings.Contains(out, "usage:") {
		t.Errorf("help: want usage on stdout with exit 0, got %d", code)
	}
}
