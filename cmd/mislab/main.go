// Command mislab runs one MIS algorithm on one generated graph and prints
// the measured complexities, the per-phase breakdown, and the structural
// diagnostics. With -dynamic it instead maintains the MIS under an update
// stream and reports the localized-repair cost.
//
// Usage:
//
//	mislab -algo algorithm1 -graph gnp -n 10000 -deg 8 -seed 1
//	mislab -algo all -graph rgg -n 20000 -deg 12
//	mislab -algo algorithm1 -n 10000 -trace run.jsonl   (analyze with mistrace)
//	mislab -dynamic -stream churn -updates 1000 -n 10000
//	mislab -dynamic -window 64 -trace dyn.jsonl -n 10000
//	mislab -dynamic -stream hub -graph ba -n 5000
//
// Graphs: gnp, rgg, udg, ba, grid, tree, reg, clique, star, path,
// cliquechain.
// (udg is the fixed-radius unit-disk family: -radius sets the
// communication range, 0 derives it from -deg.)
// Algorithms: luby, algorithm1, algorithm2, algorithm1-avg,
// algorithm2-avg, or "all". Streams: churn, window, hub.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	energymis "github.com/energymis/energymis"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mislab:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		algoName   = flag.String("algo", "algorithm1", "algorithm (or 'all')")
		graphName  = flag.String("graph", "gnp", "graph family")
		n          = flag.Int("n", 10000, "number of nodes")
		deg        = flag.Float64("deg", 8, "target average degree (density knob)")
		radius     = flag.Float64("radius", 0, "udg communication radius (0 = derive from -deg)")
		seed       = flag.Uint64("seed", 1, "random seed (graph and run)")
		verify     = flag.Bool("verify", true, "verify the output is a maximal independent set")
		phases     = flag.Bool("phases", true, "print the per-phase breakdown")
		tracePath  = flag.String("trace", "", "write a JSONL run trace here (see cmd/mistrace)")
		dyn        = flag.Bool("dynamic", false, "maintain the MIS under an update stream")
		streamKind = flag.String("stream", "churn", "update stream: churn, window, hub")
		updates    = flag.Int("updates", 1000, "update-stream length (with -dynamic)")
		batch      = flag.Int("batch", 1, "updates per batch (with -dynamic, churn stream)")
		window     = flag.Int("window", 0, "coalesce updates into repair batches of this size (with -dynamic; 0 = apply stream batches as generated)")
	)
	flag.Parse()

	g, err := makeGraph(*graphName, *n, *deg, *radius, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("graph %s: n=%d m=%d maxDeg=%d avgDeg=%.2f\n\n",
		*graphName, g.N(), g.M(), g.MaxDegree(), g.AvgDegree())

	if *dyn {
		return runDynamic(g, *algoName, *streamKind, *tracePath, *updates, *batch, *window, *seed, *verify)
	}

	algos, err := pickAlgos(*algoName)
	if err != nil {
		return err
	}
	for _, algo := range algos {
		opts := energymis.Options{Seed: *seed}
		if *tracePath != "" {
			opts.TracePath = traceFile(*tracePath, algo.String(), len(algos) > 1)
		}
		var res *energymis.Result
		if *verify {
			res, err = energymis.RunVerified(g, algo, opts)
		} else {
			res, err = energymis.Run(g, algo, opts)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", algo, err)
		}
		fmt.Printf("%s: mis=%d rounds=%d maxAwake=%d p99Awake=%d avgAwake=%.2f msgs=%d bitsMax=%d\n",
			algo, res.MISSize(), res.Rounds, res.MaxAwake, res.P99Awake, res.AvgAwake,
			res.Messages, res.BitsMax)
		if opts.TracePath != "" {
			fmt.Printf("  trace: %s\n", opts.TracePath)
		}
		if res.CongestViolations > 0 {
			fmt.Printf("  WARNING: %d CONGEST violations\n", res.CongestViolations)
		}
		if *phases {
			for _, p := range res.Phases {
				fmt.Printf("  %-16s rounds=%-7d maxAwake=%-5d avgAwake=%.2f\n",
					p.Name, p.Rounds, p.MaxAwake, p.AvgAwake)
			}
			d := res.Diag
			fmt.Printf("  diag: Δ %d->%d | survivors %d in %d comps (max %d) | tree depth %d | retries %d\n",
				d.InputMaxDegree, d.ResidualMaxDegree, d.SurvivorNodes,
				d.SurvivorComponents, d.MaxComponent, d.TreeDepth, d.Phase3Retries)
		}
		fmt.Println()
	}
	return nil
}

// traceFile returns the trace path for one algorithm's run. With several
// algorithms sharing one -trace value, the algorithm name is inserted
// before the extension so each run keeps its own trace.
func traceFile(path, algo string, multi bool) string {
	if !multi {
		return path
	}
	ext := filepath.Ext(path)
	return path[:len(path)-len(ext)] + "-" + algo + ext
}

func pickAlgos(name string) ([]energymis.Algorithm, error) {
	if name == "all" {
		return energymis.Algorithms(), nil
	}
	for _, a := range energymis.Algorithms() {
		if a.String() == name {
			return []energymis.Algorithm{a}, nil
		}
	}
	return nil, fmt.Errorf("unknown algorithm %q", name)
}

func makeGraph(name string, n int, deg, radius float64, seed uint64) (*energymis.Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("-n must not be negative, got %d", n)
	}
	if deg < 0 {
		return nil, fmt.Errorf("-deg must not be negative, got %g", deg)
	}
	switch name {
	case "gnp":
		return energymis.GNP(n, deg/float64(max(1, n-1)), seed), nil
	case "rgg":
		return energymis.RGG(n, deg, seed), nil
	case "udg":
		if radius <= 0 {
			radius = energymis.RadiusForAvgDegree(n, deg)
		}
		return energymis.RandomGeometric(n, radius, seed), nil
	case "ba":
		m := int(deg/2) + 1
		return energymis.BarabasiAlbert(n, m, seed), nil
	case "grid":
		side := 1
		for side*side < n {
			side++
		}
		return energymis.Grid2D(side, side), nil
	case "tree":
		return energymis.RandomTree(n, seed), nil
	case "reg":
		return energymis.NearRegular(n, int(deg), seed), nil
	case "clique":
		return energymis.Complete(n), nil
	case "star":
		return energymis.Star(n), nil
	case "path":
		return energymis.Path(n), nil
	case "cliquechain":
		s := int(deg) + 2
		return energymis.CliqueChain(max(1, n/s), s), nil
	default:
		return nil, fmt.Errorf("unknown graph family %q", name)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
