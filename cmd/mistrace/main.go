package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"github.com/energymis/energymis/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	var err error
	switch cmd := args[0]; cmd {
	case "summary":
		err = cmdSummary(args[1:], stdout)
	case "diff":
		err = cmdDiff(args[1:], stdout)
	case "check":
		var failed bool
		failed, err = cmdCheck(args[1:], stdout)
		if err == nil && failed {
			return 1
		}
	case "csv":
		err = cmdCSV(args[1:], stdout)
	case "fit":
		var failed bool
		failed, err = cmdFit(args[1:], stdout, stderr)
		if err == nil && failed {
			return 1
		}
	case "-h", "-help", "--help", "help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "mistrace: unknown subcommand %q\n", cmd)
		usage(stderr)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "mistrace:", err)
		return 2
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage:
  mistrace summary [-top k] [-width n] trace.jsonl
  mistrace diff a.jsonl b.jsonl
  mistrace check trace.jsonl...
  mistrace csv [-o out.csv] [-totals] trace.jsonl
  mistrace fit [-compare TWIN_MIS.json] [-out TWIN_MIS.json] [-csv residuals.csv]
`)
}

func cmdSummary(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("summary", flag.ContinueOnError)
	top := fs.Int("top", 3, "show the k hottest phases by awake node-rounds")
	width := fs.Int("width", 60, "sparkline width in columns")
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("summary wants exactly one trace file")
	}
	t, err := obs.ReadTraceFile(fs.Arg(0))
	if err != nil {
		return err
	}
	s := obs.Summarize(t)

	fmt.Fprintf(w, "trace %s (schema v%d)\n", fs.Arg(0), t.Header.SchemaVersion)
	if len(s.Meta) > 0 {
		keys := make([]string, 0, len(s.Meta))
		for k := range s.Meta {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "  meta:")
		for _, k := range keys {
			fmt.Fprintf(w, " %s=%s", k, s.Meta[k])
		}
		fmt.Fprintln(w)
	}
	tot := s.Total
	fmt.Fprintf(w, "  totals: rounds=%d maxAwake=%d avgAwake=%.2f awakeTotal=%d msgs=%d dropped=%d bits=%d mis=%d\n",
		tot.Rounds, tot.MaxAwake, tot.AvgAwake, tot.Awake, tot.MsgsSent,
		tot.MsgsDropped, tot.Bits, tot.MISSize)
	if tot.Components > 0 || tot.SweepWords > 0 {
		fmt.Fprintf(w, "  dynamic: components=%d maxComponents=%d sweepWords=%d\n",
			tot.Components, tot.MaxComponents, tot.SweepWords)
	}
	if st := s.Stages; st.Rounds > 0 && st.WallNS > 0 {
		share := func(ns int64) float64 { return 100 * float64(ns) / float64(st.WallNS) }
		fmt.Fprintf(w, "  engine stages (%d rounds): compose %.1f%% route %.1f%% deliver %.1f%% schedule %.1f%%",
			st.Rounds, share(st.ComposeNS), share(st.RouteNS), share(st.DeliverNS), share(st.ScheduleNS))
		if st.MsgsSent > 0 {
			perMsg := func(ns int64) float64 { return float64(ns) / float64(st.MsgsSent) }
			fmt.Fprintf(w, "; route %.1f ns/msg, route+deliver %.1f ns/msg", perMsg(st.RouteNS), perMsg(st.RouteNS+st.DeliverNS))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "  %-18s %8s %12s %7s %12s %9s %10s %10s\n",
		"phase", "rounds", "awake", "awake%", "msgs", "residual", "wall", "engine")
	for _, p := range s.Phases {
		share := 0.0
		if tot.Awake > 0 {
			share = 100 * float64(p.Awake) / float64(tot.Awake)
		}
		fmt.Fprintf(w, "  %-18s %8d %12d %6.1f%% %12d %9d %10s %10s\n",
			p.Name, p.Rounds, p.Awake, share, p.MsgsSent, p.Residual,
			time.Duration(p.WallNS).Round(time.Microsecond),
			time.Duration(p.EngineNS).Round(time.Microsecond))
	}

	if *top > 0 && len(s.Phases) > 1 {
		fmt.Fprintf(w, "\n  top %d phases by awake node-rounds:\n", min(*top, len(s.Phases)))
		for i, p := range obs.TopPhases(s, *top) {
			fmt.Fprintf(w, "    %d. %-18s awake=%d rounds=%d\n", i+1, p.Name, p.Awake, p.Rounds)
		}
	}

	if spark := obs.Sparkline(s, *width); spark != "" {
		fmt.Fprintf(w, "\n  awake curve (%d round events, peak %d):\n  %s\n",
			s.RoundCount, s.PeakAwake, spark)
	}
	return nil
}

func cmdDiff(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("diff wants exactly two trace files")
	}
	ta, err := obs.ReadTraceFile(fs.Arg(0))
	if err != nil {
		return err
	}
	tb, err := obs.ReadTraceFile(fs.Arg(1))
	if err != nil {
		return err
	}
	d := obs.Diff(obs.Summarize(ta), obs.Summarize(tb))

	fmt.Fprintf(w, "A: %s\nB: %s\n\n", fs.Arg(0), fs.Arg(1))
	fmt.Fprintf(w, "%-18s %20s %24s %26s\n", "phase", "rounds (A→B)", "awake (A→B)", "msgs (A→B)")
	for _, p := range d.Phases {
		tag := ""
		switch {
		case !p.InA:
			tag = " [B only]"
		case !p.InB:
			tag = " [A only]"
		}
		fmt.Fprintf(w, "%-18s %8d → %-9d %10d → %-11d %11d → %-12d%s\n",
			p.Name, p.Rounds[0], p.Rounds[1], p.Awake[0], p.Awake[1],
			p.MsgsSent[0], p.MsgsSent[1], tag)
	}
	a, b := d.A.Total, d.B.Total
	fmt.Fprintf(w, "\ntotals: rounds %d → %d (%+d), awake %d → %d (%+d), msgs %d → %d (%+d), mis %d → %d\n",
		a.Rounds, b.Rounds, b.Rounds-a.Rounds,
		a.Awake, b.Awake, b.Awake-a.Awake,
		a.MsgsSent, b.MsgsSent, b.MsgsSent-a.MsgsSent,
		a.MISSize, b.MISSize)
	return nil
}

func cmdCheck(args []string, w io.Writer) (failed bool, err error) {
	if len(args) == 0 {
		return false, fmt.Errorf("check wants at least one trace file")
	}
	for _, path := range args {
		t, err := obs.ReadTraceFile(path)
		if err != nil {
			return false, err
		}
		problems := obs.CheckTrace(t)
		if len(problems) == 0 {
			fmt.Fprintf(w, "%s: OK (%d records)\n", path, len(t.Records))
			continue
		}
		failed = true
		fmt.Fprintf(w, "%s: %d problem(s)\n", path, len(problems))
		for _, p := range problems {
			fmt.Fprintf(w, "  - %s\n", p)
		}
	}
	return failed, nil
}

func cmdCSV(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("csv", flag.ContinueOnError)
	out := fs.String("o", "", "write CSV to this file instead of stdout")
	totals := fs.Bool("totals", false, "emit the summary totals as one row (components and sweep words included) instead of the round curve")
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("csv wants exactly one trace file")
	}
	t, err := obs.ReadTraceFile(fs.Arg(0))
	if err != nil {
		return err
	}
	write := obs.WriteCurveCSV
	if *totals {
		write = obs.WriteTotalsCSV
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := write(f, t); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return write(w, t)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
