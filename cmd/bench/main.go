// Command bench runs the benchmark-harness suites and emits/diffs the
// machine-readable BENCH_MIS.json report.
//
// Usage:
//
//	bench -out BENCH_MIS.json              # full run, write the baseline
//	bench -quick -compare BENCH_MIS.json   # the CI perf gate
//	bench -suites static,dynamic -reps 7
//	bench -list
//
// Exit status: 0 on success, 1 when -compare finds a regression beyond
// -threshold on ns/awake-node-round, 2 on errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strings"

	"github.com/energymis/energymis/internal/bench"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		suitesFlag = flag.String("suites", "", "comma-separated suites to run (default all: "+strings.Join(bench.SuiteNames(), ",")+")")
		suiteAlias = flag.String("suite", "", "alias for -suites")
		quick      = flag.Bool("quick", false, "run only the quick subset (same cases/sizes as the full run; fewer of them)")
		reps       = flag.Int("reps", 0, "timed repetitions per case (default 5)")
		out        = flag.String("out", "", "write the JSON report to this path")
		compare    = flag.String("compare", "", "baseline report to diff against; regressions beyond -threshold fail the run")
		threshold  = flag.Float64("threshold", bench.DefaultThreshold, "regression budget on ns/awake-node-round (fraction, e.g. 0.20)")
		list       = flag.Bool("list", false, "list the selected cases and exit")
		quiet      = flag.Bool("q", false, "suppress per-case progress output")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the measured runs to this path")
		memprofile = flag.String("memprofile", "", "write an allocation profile (after the runs) to this path")
		exectrace  = flag.String("exectrace", "", "write a runtime execution trace of the measured runs to this path (view with go tool trace)")
	)
	flag.Parse()

	var suites []string
	for _, flagVal := range []string{*suitesFlag, *suiteAlias} {
		if flagVal == "" {
			continue
		}
		for _, s := range strings.Split(flagVal, ",") {
			suites = append(suites, strings.TrimSpace(s))
		}
	}
	specs, err := bench.Specs(suites, *quick)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if len(specs) == 0 {
		fmt.Fprintln(os.Stderr, "bench: no cases selected")
		return 2
	}
	if *list {
		for _, s := range specs {
			q := ""
			if s.Quick {
				q = "  [quick]"
			}
			fmt.Printf("%s%s\n", s.Key(), q)
		}
		return 0
	}

	r := *reps
	if r <= 0 {
		r = 5
	}
	progress := func(line string) { fmt.Fprintln(os.Stderr, line) }
	if *quiet {
		progress = nil
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *exectrace != "" {
		f, err := os.Create(*exectrace)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		defer f.Close()
		if err := rtrace.Start(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		defer rtrace.Stop()
	}
	report, err := bench.RunSpecs(specs, r, *quick, progress)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		runtime.GC() // flush accurate allocation stats into the profile
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "wrote %s\n", *memprofile)
	}

	var cmp *bench.Comparison
	if *compare != "" {
		baseline, err := bench.ReadFile(*compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		cmp, err = bench.Compare(baseline, report, *threshold)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if cmp.Regressed() {
			// Scheduler noise can push a single case past the threshold;
			// a real regression survives a second measurement. Re-run only
			// the regressed cases, keep each case's best timing, and
			// re-judge.
			cmp, err = remeasureRegressed(specs, baseline, report, cmp, r, *threshold, progress)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
		}
	}

	// Write the report only after any re-measurement has replaced noisy
	// timings: the saved JSON must be the exact data the gate judged.
	if *out != "" {
		if err := bench.WriteFile(*out, report); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d cases)\n", *out, len(report.Cases))
	}

	if cmp != nil {
		cmp.Format(os.Stdout)
		if cmp.Regressed() {
			return 1
		}
	} else if *out == "" {
		// No sink selected: the report goes to stdout.
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		fmt.Println(string(data))
	}
	return 0
}

func remeasureRegressed(specs []bench.Spec, baseline, report *bench.Report, cmp *bench.Comparison, reps int, threshold float64, progress func(string)) (*bench.Comparison, error) {
	byKey := map[string]bench.Spec{}
	for _, s := range specs {
		byKey[s.Key()] = s
	}
	done := map[string]bool{}
	for _, d := range cmp.Regressions {
		// A case past both gated metrics appears once per metric; one
		// re-measurement covers both.
		spec, ok := byKey[d.Case]
		if !ok || done[d.Case] {
			continue
		}
		done[d.Case] = true
		if progress != nil {
			progress(fmt.Sprintf("re-measuring regressed case %s", d.Case))
		}
		again, err := bench.Measure(spec, reps)
		if err != nil {
			return nil, err
		}
		// Keep the better of the two measurements per gated metric (wall
		// time and allocations move independently): a noisy burst shouldn't
		// fail the gate, a real regression repeats.
		if cur := report.Case(d.Case); cur != nil {
			best := cur.Timing
			if t := again.Timing; t.MinNS < best.MinNS {
				best.Reps, best.MinNS, best.MeanNS, best.MaxNS, best.StdevNS = t.Reps, t.MinNS, t.MeanNS, t.MaxNS, t.StdevNS
				best.NSPerAwakeNodeRound = t.NSPerAwakeNodeRound
				best.RunsPerSec = t.RunsPerSec
				best.UpdatesPerSec = t.UpdatesPerSec
			}
			if t := again.Timing; t.AllocsPerAwakeNodeRound < best.AllocsPerAwakeNodeRound {
				best.AllocsPerOp, best.BytesPerOp = t.AllocsPerOp, t.BytesPerOp
				best.AllocsPerAwakeNodeRound = t.AllocsPerAwakeNodeRound
				best.AllocsPerRun = t.AllocsPerRun
				best.AllocsPerUpdate = t.AllocsPerUpdate
			}
			cur.Timing = best
		}
	}
	return bench.Compare(baseline, report, threshold)
}
