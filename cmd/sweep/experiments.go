package main

import (
	"fmt"
	"math"
	"path/filepath"

	energymis "github.com/energymis/energymis"
	"github.com/energymis/energymis/internal/core"
	"github.com/energymis/energymis/internal/degreduce"
	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/phase1"
	"github.com/energymis/energymis/internal/phase3"
	"github.com/energymis/energymis/internal/schedule"
	"github.com/energymis/energymis/internal/shatter"
	"github.com/energymis/energymis/internal/sim"
)

// avgRun runs (algo, graph) over the seeds and averages the measurements.
type measures struct {
	rounds, maxAwake, p99 float64
	avg                   float64
	mis                   float64
	bitsMax               float64
}

func measure(c sweepConfig, g *energymis.Graph, algo energymis.Algorithm) (measures, error) {
	var m measures
	seeds := c.seeds
	for s := 0; s < seeds; s++ {
		opts := energymis.Options{Seed: uint64(s) + 1}
		if c.traceDir != "" {
			opts.TracePath = filepath.Join(c.traceDir,
				fmt.Sprintf("%s-n%d-seed%d.jsonl", algo, g.N(), s+1))
		}
		res, err := energymis.RunVerified(g, algo, opts)
		if err != nil {
			return m, err
		}
		m.rounds += float64(res.Rounds)
		m.maxAwake += float64(res.MaxAwake)
		m.p99 += float64(res.P99Awake)
		m.avg += res.AvgAwake
		m.mis += float64(res.MISSize())
		m.bitsMax += float64(res.BitsMax)
	}
	k := float64(seeds)
	m.rounds /= k
	m.maxAwake /= k
	m.p99 /= k
	m.avg /= k
	m.mis /= k
	m.bitsMax /= k
	return m, nil
}

// E1: the comparison "table" of Sections 1.2/1.3 — every algorithm on a
// common sweep, reporting time and energy.
func runE1(c sweepConfig) error {
	var rows [][]string
	for _, n := range []int{c.n(4000), c.n(16000), c.n(65536)} {
		g := energymis.GNP(n, 12.0/float64(n), uint64(n))
		for _, algo := range energymis.Algorithms() {
			m, err := measure(c, g, algo)
			if err != nil {
				return err
			}
			rows = append(rows, []string{
				i0(n), algo.String(), f2(m.rounds), f2(m.maxAwake), f2(m.p99), f2(m.avg),
			})
		}
	}
	table([]string{"n", "algorithm", "rounds", "maxAwake", "p99Awake", "avgAwake"}, rows)
	return nil
}

func scalingRows(c sweepConfig, algo energymis.Algorithm) ([][]string, error) {
	var rows [][]string
	for _, base := range []int{2048, 8192, 32768, 131072} {
		n := c.n(base)
		g := energymis.GNP(n, 10.0/float64(n), uint64(n))
		m, err := measure(c, g, algo)
		if err != nil {
			return nil, err
		}
		log2n := math.Log2(float64(n))
		rows = append(rows, []string{
			i0(n), f2(m.rounds), f2(m.rounds / (log2n * log2n)), f2(m.maxAwake), f2(m.p99),
			f2(m.maxAwake / math.Log2(log2n)),
		})
	}
	return rows, nil
}

// E2: Theorem 1.1 scaling.
func runE2(c sweepConfig) error {
	rows, err := scalingRows(c, energymis.Algorithm1)
	if err != nil {
		return err
	}
	table([]string{"n", "rounds", "rounds/log²n", "maxAwake", "p99Awake", "maxAwake/loglog n"}, rows)
	return nil
}

// E3: Theorem 1.2 scaling.
func runE3(c sweepConfig) error {
	rows, err := scalingRows(c, energymis.Algorithm2)
	if err != nil {
		return err
	}
	table([]string{"n", "rounds", "rounds/log²n", "maxAwake", "p99Awake", "maxAwake/loglog n"}, rows)
	return nil
}

// E4: Lemma 2.1 — Phase I residual degree.
func runE4(c sweepConfig) error {
	var rows [][]string
	cases := []struct {
		name string
		g    *energymis.Graph
	}{
		{"gnp-dense", energymis.GNP(c.n(3000), 0.3, 3)},
		{"gnp-denser", energymis.GNP(c.n(1500), 0.6, 4)},
		{"ba-hubs", energymis.BarabasiAlbert(c.n(6000), 50, 5)},
		{"clique", energymis.Complete(c.n(900))},
	}
	for _, tc := range cases {
		for s := 0; s < c.seeds; s++ {
			out, err := phase1.Run(tc.g, phase1.DefaultParams(), sim.Config{Seed: uint64(s) + 1})
			if err != nil {
				return err
			}
			sub := graph.InducedSubgraph(tc.g, out.Residual)
			log2n := math.Log2(float64(tc.g.N()))
			rows = append(rows, []string{
				tc.name, i0(tc.g.N()), i0(tc.g.MaxDegree()), i0(out.Plan.Iterations),
				i0(sub.MaxDegree()), f2(float64(sub.MaxDegree()) / (log2n * log2n)),
				i0(out.Res.MaxAwake()), i0(out.Sampled),
			})
		}
	}
	table([]string{"graph", "n", "Δ", "iters", "residual Δ", "residualΔ/log²n", "maxAwake", "sampled"}, rows)
	return nil
}

// E5: Lemma 2.5 — schedule sizes.
func runE5(c sweepConfig) error {
	var rows [][]string
	for _, t := range []int{16, 256, 4096, 65536, 1 << 20} {
		maxSize := 0
		for k := 0; k < t; k += 1 + t/4096 {
			if s := len(schedule.Set(t, k)); s > maxSize {
				maxSize = s
			}
		}
		rows = append(rows, []string{
			i0(t), i0(maxSize), i0(schedule.MaxSize(t)),
			f2(float64(maxSize) / math.Log2(float64(t))),
		})
	}
	table([]string{"T", "max |S_k| (measured)", "bound ⌈log T⌉+1", "measured/log₂T"}, rows)
	return nil
}

// E6: Lemma 2.6 — shattering.
func runE6(c sweepConfig) error {
	var rows [][]string
	for _, n := range []int{c.n(8000), c.n(32000), c.n(128000)} {
		g := energymis.NearRegular(n, 16, uint64(n))
		for s := 0; s < c.seeds; s++ {
			out, err := shatter.Run(g, shatter.DefaultParams(), sim.Config{Seed: uint64(s) + 1})
			if err != nil {
				return err
			}
			log2n := math.Log2(float64(n))
			rows = append(rows, []string{
				i0(n), i0(out.Rounds), i0(len(out.Survivors)), i0(len(out.Components)),
				i0(out.MaxComponent), f2(float64(out.MaxComponent) / (log2n * log2n)),
			})
		}
	}
	table([]string{"n", "rounds", "survivors", "components", "max comp", "maxComp/log²n"}, rows)
	return nil
}

// E7: Lemma 2.8 — merging.
func runE7(c sweepConfig) error {
	var rows [][]string
	for _, n := range []int{c.n(500), c.n(2000), c.n(8000)} {
		// Sparse graphs stand in for shattered residuals.
		g := energymis.GNP(n, 5.0/float64(n), uint64(n))
		for s := 0; s < c.seeds; s++ {
			out, err := phase3.Run(g, phase3.DefaultParams(phase3.ModeAlg1), sim.Config{Seed: uint64(s) + 1})
			if err != nil {
				return err
			}
			if len(out.Undecided) > 0 {
				return fmt.Errorf("E7: %d undecided", len(out.Undecided))
			}
			rows = append(rows, []string{
				i0(n), i0(out.MaxComponent), i0(out.Timetable.Iters), i0(out.Timetable.Classes),
				i0(out.MaxDepth), f2(float64(out.MaxDepth) / math.Log2(float64(n))),
				i0(out.Res.MaxAwake()), i0(out.MaxAttempts),
			})
		}
	}
	table([]string{"n", "max comp", "iters", "classes", "tree depth", "depth/log n", "maxAwake", "attempts"}, rows)
	return nil
}

// E8: Lemma 3.1 — per-iteration degree drop.
func runE8(c sweepConfig) error {
	var rows [][]string
	g := energymis.GNP(c.n(2500), 0.35, 8)
	p := degreduce.DefaultParams()
	p.StopLogExp = 0
	p.StopMin = 16
	for s := 0; s < c.seeds; s++ {
		out, err := degreduce.Run(g, p, sim.Config{Seed: uint64(s) + 1})
		if err != nil {
			return err
		}
		for i, it := range out.Iters {
			bound := math.Pow(float64(it.Delta), 0.7)
			rows = append(rows, []string{
				i0(s), i0(i), i0(it.Delta), i0(it.MeasuredD),
				f2(float64(it.MeasuredD) / bound), i0(it.Res.MaxAwake()), i0(it.Nodes),
			})
		}
	}
	table([]string{"seed", "iter", "Δ (bound)", "measured Δ'", "Δ'/Δ^0.7", "maxAwake", "nodes"}, rows)
	return nil
}

// E9: Section 4 — node-averaged energy stays O(1).
func runE9(c sweepConfig) error {
	var rows [][]string
	for _, n := range []int{c.n(4000), c.n(16000), c.n(64000)} {
		g := energymis.NearRegular(n, 24, uint64(n))
		for _, algo := range []energymis.Algorithm{energymis.Algorithm1, energymis.Algorithm1Avg, energymis.Algorithm2Avg} {
			m, err := measure(c, g, algo)
			if err != nil {
				return err
			}
			rows = append(rows, []string{
				i0(n), algo.String(), f2(m.avg), f2(m.p99), f2(m.maxAwake),
			})
		}
	}
	table([]string{"n", "algorithm", "avgAwake", "p99Awake", "maxAwake"}, rows)
	return nil
}

// E10: CONGEST compliance.
func runE10(c sweepConfig) error {
	var rows [][]string
	for _, n := range []int{c.n(1000), c.n(16000)} {
		g := energymis.GNP(n, 10.0/float64(n), uint64(n))
		b := sim.DefaultB(n)
		for _, algo := range energymis.Algorithms() {
			res, err := energymis.RunVerified(g, algo, energymis.Options{Seed: 1})
			if err != nil {
				return err
			}
			rows = append(rows, []string{
				i0(n), algo.String(), i0(res.BitsMax), i0(b),
				i0(int(res.CongestViolations)),
			})
		}
	}
	table([]string{"n", "algorithm", "bitsMax", "B", "violations"}, rows)
	return nil
}

// A1: disable one-shot marking by running plain Luby restricted to the
// same number of rounds as Phase I — the energy each node would pay if it
// had to stay awake to re-mark (the Section 2.1 motivation).
func runA1(c sweepConfig) error {
	var rows [][]string
	g := energymis.GNP(c.n(2500), 0.35, 5)
	out, err := phase1.Run(g, phase1.DefaultParams(), sim.Config{Seed: 1})
	if err != nil {
		return err
	}
	inSetL, resL, err := lubyRun(g, 1)
	if err != nil {
		return err
	}
	rows = append(rows, []string{"phase1 (one-shot, scheduled)", i0(out.Res.MaxAwake()), f2(out.Res.AvgAwake()), i0(out.Plan.T * 3)})
	rows = append(rows, []string{"luby (re-marking, always awake)", i0(resL.MaxAwake()), f2(resL.AvgAwake()), i0(resL.Rounds)})
	_ = inSetL
	table([]string{"variant", "maxAwake", "avgAwake", "rounds"}, rows)
	return nil
}

func lubyRun(g *energymis.Graph, seed uint64) ([]bool, *sim.Result, error) {
	res, err := core.Run(g, core.Luby, func() core.Options {
		o := core.DefaultOptions()
		o.Seed = seed
		return o
	}())
	if err != nil {
		return nil, nil, err
	}
	return res.InSet, &sim.Result{Rounds: res.Summary.Rounds, Awake: awake32(res.AwakePerNode)}, nil
}

func awake32(a []int64) []int32 {
	out := make([]int32, len(a))
	for i, v := range a {
		out[i] = int32(v)
	}
	return out
}

// A2: finisher with K = 1 vs K = Θ(log n) parallel executions, stressed
// with a large component and a deliberately tight dynamics budget so that
// a single execution often fails to decide every node (the situation
// Lemma 2.7's parallel executions exist for).
func runA2(c sweepConfig) error {
	var rows [][]string
	g := energymis.GNP(300, 4.0/300, 9) // one large sparse component
	for _, k := range []int{1, 4, 0} {  // 0 = default Θ(log n)
		p := phase3.DefaultParams(phase3.ModeAlg1)
		p.K = k
		p.GhaffariC = 1
		p.GhaffariFloor = 1
		p.Attempts = 4
		fails, attempts := 0, 0
		runs := c.seeds * 4
		for s := 0; s < runs; s++ {
			out, err := phase3.Run(g, p, sim.Config{Seed: uint64(s) + 1})
			if err != nil {
				return err
			}
			fails += len(out.Undecided)
			attempts += out.MaxAttempts
		}
		label := fmt.Sprintf("K=%d", p.K)
		if k == 0 {
			label = "K=2⌈log n⌉ (default)"
		}
		rows = append(rows, []string{
			label, f2(float64(attempts) / float64(runs)), i0(fails),
		})
	}
	table([]string{"executions", "mean attempts", "undecided nodes (all runs)"}, rows)
	return nil
}

// A3: indegree threshold sweep in Lemma 2.8.
func runA3(c sweepConfig) error {
	var rows [][]string
	g := energymis.GNP(c.n(3000), 5.0/float64(c.n(3000)), 11)
	for _, thresh := range []int{3, 10, 40} {
		p := phase3.DefaultParams(phase3.ModeAlg1)
		p.IndegreeThresh = thresh
		out, err := phase3.Run(g, p, sim.Config{Seed: 1})
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			i0(thresh), i0(out.Res.MaxAwake()), i0(out.MaxDepth), i0(len(out.Undecided)),
		})
	}
	table([]string{"threshold", "maxAwake", "tree depth", "undecided"}, rows)
	return nil
}

// A4: coloring trajectories — the Cole–Vishkin palette chains of phase3's
// timetable in both modes.
func runA4(c sweepConfig) error {
	var rows [][]string
	for _, n := range []int{1 << 12, 1 << 16, 1 << 20} {
		tt1 := phase3.NewTimetable(n, 40, phase3.DefaultParams(phase3.ModeAlg1))
		tt2 := phase3.NewTimetable(n, 40, phase3.DefaultParams(phase3.ModeAlg2))
		rows = append(rows, []string{
			i0(n), fmt.Sprintf("%v", tt1.Palette), i0(tt1.Classes),
			fmt.Sprintf("%v", tt2.Palette), i0(tt2.Classes),
		})
	}
	table([]string{"n", "Alg1 palette chain (LR=2)", "classes", "Alg2 chain (log*)", "classes"}, rows)
	fmt.Println()
	fmt.Println("(The paper invokes Linial's reduction; on the out-degree-1 forest H_L " +
		"the Cole–Vishkin chain above reaches the same O(log log n) / O(1) class counts.)")
	return nil
}

// G1: the unit-disk sensor-field scenario — a fixed communication radius
// while the deployment densifies, so average degree grows linearly with n.
// Luby's energy tracks its O(log n) time, while Algorithm 1 keeps per-node
// energy near-flat: exactly the battery-lifetime story of the paper's
// sensor-network motivation, on the RandomGeometric family.
func runG1(c sweepConfig) error {
	const radius = 0.025
	var rows [][]string
	for _, base := range []int{4000, 8000, 16000} {
		n := c.n(base)
		g := energymis.RandomGeometric(n, radius, uint64(n))
		for _, algo := range []energymis.Algorithm{energymis.Luby, energymis.Algorithm1} {
			m, err := measure(c, g, algo)
			if err != nil {
				return err
			}
			rows = append(rows, []string{
				i0(n), f2(g.AvgDegree()), i0(g.MaxDegree()), algo.String(),
				f2(m.rounds), f2(m.maxAwake), f2(m.avg), f2(m.mis),
			})
		}
	}
	table([]string{"n", "avg deg", "Δ", "algorithm", "rounds", "maxAwake", "avgAwake", "|MIS|"}, rows)
	return nil
}
