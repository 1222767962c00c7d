package main

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"time"

	energymis "github.com/energymis/energymis"
	"github.com/energymis/energymis/internal/core"
	"github.com/energymis/energymis/internal/dynamic"
	"github.com/energymis/energymis/internal/obs"
)

// A workload is one family of inputs and the operation the benchmark
// repeats on them. Every input derives from the -seed value and the rep
// number, so the same seed gives byte-identical inputs and counters.
type workload struct {
	name string
	// rate is the nominal ops per second on the host the benchmark was
	// sized on: a run of -seconds s performs seconds × rate ops, a fixed
	// count, so the simulated work is identical across commits.
	rate float64
	// setup builds rep's inputs and reusable state (the part counted in
	// setup_s) and reports the time of its parts.
	setup func(seed uint64, rep int) (runner, setupParts, error)
}

// setupParts times the pieces of a set-up that belong to a layer.
type setupParts struct {
	graphNS, streamNS, greedyNS int64
}

// A runner executes one rep's operations, grouped in passes.
type runner interface {
	// cycle is the number of distinct passes: pass p repeats pass p−cycle
	// exactly (dynamic: one stream per input instance, replayed on a fresh
	// engine). 0 means ops never repeat (static: one pass, every op a new
	// run seed).
	cycle() int
	// startPass prepares pass p and returns its op count (0 for a static
	// pass: as many as the rep needs); a non-nil tracer traces all of it
	// (dynamic engines take their tracer at construction). Not timed.
	startPass(p int, tr obs.Tracer) (int, error)
	// op runs op i of the pass (the timed call) and adds its counters. tr,
	// when non-nil, traces this op alone (static runs).
	op(i int, tr obs.Tracer, c *counters) error
	// check validates op i's output (timed apart from op_s).
	check(i int) error
	// endPass validates the pass's final state and adds pass-level
	// counters (timed apart from op_s).
	endPass(c *counters) error
}

// counters are the paper's measures summed over ops. Deterministic in the
// seed: any drift between passes, runs or commits is a change in simulated
// work.
type counters struct {
	ops      int
	passes   int // dynamic: complete passes
	updates  int64
	rounds   int64
	awake    int64 // awake node-rounds
	messages int64
	// Static: sums over runs of MaxAwake and AvgAwake. Dynamic: sums over
	// passes of the per-node maximum and mean of a pass's awake rounds.
	maxAwake float64
	avgAwake float64
	misSize  int64

	woken, evictions, components, elections, sweepWords int64
	regionMax                                           int
}

func (c *counters) add(o counters) {
	c.ops += o.ops
	c.passes += o.passes
	c.updates += o.updates
	c.rounds += o.rounds
	c.awake += o.awake
	c.messages += o.messages
	c.maxAwake += o.maxAwake
	c.avgAwake += o.avgAwake
	c.misSize += o.misSize
	c.woken += o.woken
	c.evictions += o.evictions
	c.components += o.components
	c.elections += o.elections
	c.sweepWords += o.sweepWords
	c.regionMax = max(c.regionMax, o.regionMax)
}

// workloadSizes are the input sizes; tests shrink them.
type workloadSizes struct {
	gnpN, baN, churnN, hubN  int
	churnWindows, churnWidth int
	hubBatches, hubInstances int
}

// fullSizes: one hub attack's work per step depends on its graph (the
// maximum degree alone varies ±12% between BA graphs, and every step of an
// attack hits a node of that degree), so dyn-hub runs many short attacks on
// small graphs: 64 per rep, 320 per run. Over 10 seeds, the median op time
// spread 5% with 160 attacks on n=12500 per run and 3% with 320 on n=6250.
var fullSizes = workloadSizes{
	gnpN: 32768, baN: 16384, churnN: 100000, hubN: 6250,
	churnWindows: 1600, churnWidth: 64,
	hubBatches: 50, hubInstances: 64,
}

func workloads(sz workloadSizes) []workload {
	gnp := func(seed uint64) *energymis.Graph {
		return energymis.GNP(sz.gnpN, 10/float64(sz.gnpN), seed)
	}
	ba := func(seed uint64) *energymis.Graph {
		return energymis.BarabasiAlbert(sz.baN, 5, seed)
	}
	churnGraph := func(seed uint64) *energymis.Graph {
		return energymis.GNP(sz.churnN, 8/float64(sz.churnN), seed)
	}
	hubGraph := func(seed uint64) *energymis.Graph {
		return energymis.BarabasiAlbert(sz.hubN, 4, seed)
	}
	return []workload{
		// Theorem 1.1: Phase II shattering and the glue between phases
		// dominate a run.
		{
			name:  "static-alg1",
			rate:  13,
			setup: staticSetup(energymis.Algorithm1, "gnp-deg10", gnp),
		},
		// The paper's baseline on the same graphs: engine rounds dominate and
		// glue is near zero, so glue work must not move it.
		{
			name:  "static-luby",
			rate:  40,
			setup: staticSetup(energymis.Luby, "gnp-deg10", gnp),
		},
		// Theorem 1.2 on heavy-tailed degrees: Phase I degree reduction
		// dominates, not shattering.
		{
			name:  "static-alg2-ba",
			rate:  33,
			setup: staticSetup(energymis.Algorithm2, "ba-m5", ba),
		},
		// Windows of uniform churn on a large graph: small scattered repairs
		// and word-packed sweeps.
		{
			name: "dyn-churn",
			rate: 13000,
			setup: dynamicSetup("churn", 1, churnGraph, func(g *energymis.Graph, seed uint64) [][][]energymis.Update {
				return oneBatchPerOp(energymis.ChurnStream(g, sz.churnWindows, sz.churnWidth, seed))
			}),
		},
		// The hub attack applied per adversary batch: the same repair layer
		// with concentrated access, evictions and large regions.
		{
			name: "dyn-hub",
			rate: 7200,
			setup: dynamicSetup("hub", sz.hubInstances, hubGraph, func(g *energymis.Graph, seed uint64) [][][]energymis.Update {
				return attackSteps(energymis.HubAttackStream(g, sz.hubBatches, seed))
			}),
		},
	}
}

func findWorkload(ws []workload, name string) (workload, error) {
	for _, w := range ws {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// mix derives an independent 64-bit seed per input from the -seed value
// and a tag naming the input (FNV-1a of the tag, then a splitmix64
// finalizer), so changing -seed changes every graph, stream and run seed.
func mix(seed uint64, tag string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(tag))
	z := seed ^ h.Sum64()
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// repTag names rep's copy of an input; the static workloads share graph
// tags, so static-luby runs on exactly static-alg1's graphs.
func repTag(kind string, rep int) string { return kind + "/" + strconv.Itoa(rep) }

func since(t time.Time) int64 { return time.Since(t).Nanoseconds() }

// staticRunner runs full static runs on one graph with one pooled Mem;
// op i uses run seed base+i, so no two ops of a run repeat.
type staticRunner struct {
	g    *energymis.Graph
	algo energymis.Algorithm
	base uint64
	mem  *energymis.Mem
	adv  core.Options // traced ops attach their tracer here
	last *energymis.Result
}

func staticSetup(algo energymis.Algorithm, graphTag string, gen func(uint64) *energymis.Graph) func(uint64, int) (runner, setupParts, error) {
	return func(seed uint64, rep int) (runner, setupParts, error) {
		var parts setupParts
		t := time.Now()
		g := gen(mix(seed, repTag("graph/"+graphTag, rep)))
		parts.graphNS = since(t)
		// The verifier must accept an independent sequential MIS and reject
		// a non-maximal set, or every later check would be vacuous.
		t = time.Now()
		if err := energymis.Check(g, energymis.GreedyMIS(g)); err != nil {
			return nil, parts, fmt.Errorf("verifier rejects the greedy MIS: %w", err)
		}
		if g.N() > 0 && energymis.Check(g, make([]bool, g.N())) == nil {
			return nil, parts, fmt.Errorf("verifier accepts the empty set")
		}
		parts.greedyNS = since(t)
		r := &staticRunner{g: g, algo: algo, base: mix(seed, repTag("run", rep)), mem: energymis.NewMem(), adv: core.DefaultOptions()}
		// Warm-up on a seed no op uses: fill the pooled Mem so timed runs
		// see the steady state.
		var c counters
		if err := r.run(mix(seed, repTag("warm-up", rep)), nil, &c); err != nil {
			return nil, parts, fmt.Errorf("warm-up run: %w", err)
		}
		if err := r.check(0); err != nil {
			return nil, parts, fmt.Errorf("warm-up run: %w", err)
		}
		return r, parts, nil
	}
}

func (s *staticRunner) cycle() int                             { return 0 }
func (s *staticRunner) startPass(int, obs.Tracer) (int, error) { return 0, nil }
func (s *staticRunner) endPass(*counters) error                { return nil }

func (s *staticRunner) op(i int, tr obs.Tracer, c *counters) error {
	return s.run(s.base+uint64(i), tr, c)
}

func (s *staticRunner) run(seed uint64, tr obs.Tracer, c *counters) error {
	opts := energymis.Options{Seed: seed, Mem: s.mem}
	if tr != nil {
		s.adv.Tracer = tr
		opts.Advanced = &s.adv
	}
	res, err := energymis.Run(s.g, s.algo, opts)
	s.last = res
	if err != nil {
		return err
	}
	c.ops++
	c.rounds += int64(res.Rounds)
	c.awake += res.AwakeTotal
	c.messages += res.Messages
	c.maxAwake += float64(res.MaxAwake)
	c.avgAwake += res.AvgAwake
	c.misSize += int64(res.MISSize())
	if res.CongestViolations > 0 {
		return fmt.Errorf("%d CONGEST violations", res.CongestViolations)
	}
	return nil
}

func (s *staticRunner) check(int) error {
	if s.last == nil {
		return fmt.Errorf("no result to check")
	}
	return energymis.Check(s.g, s.last.InSet)
}

// dynEngine is what a pass needs from a repair engine: the root package's
// DynamicMIS (untraced passes) and internal/dynamic's Engine (traced
// passes, through dynamic.Params.Tracer) both provide it.
type dynEngine interface {
	Apply([]energymis.Update) (energymis.BatchStats, error)
	Check() error
	Stats() energymis.DynamicStats
	Perf() energymis.DynamicPerf
	AwakePerNode() []int64
}

// dynRunner replays update streams, one per input instance and pass, on
// a fresh engine wrapped around the greedy MIS of the instance's graph. An
// op is a list of batches, each applied with one Apply call.
type dynRunner struct {
	inst []dynInstance
	cur  *dynInstance
	eng  dynEngine
}

type dynInstance struct {
	g     *energymis.Graph
	in    []bool
	steps [][][]energymis.Update
	seed  uint64
}

func dynamicSetup(kind string, instances int, gen func(uint64) *energymis.Graph, stream func(*energymis.Graph, uint64) [][][]energymis.Update) func(uint64, int) (runner, setupParts, error) {
	return func(seed uint64, rep int) (runner, setupParts, error) {
		var parts setupParts
		d := &dynRunner{}
		for j := 0; j < instances; j++ {
			tag := repTag(kind, rep) + "/" + strconv.Itoa(j)
			t := time.Now()
			g := gen(mix(seed, "graph/"+tag))
			parts.graphNS += since(t)
			t = time.Now()
			steps := stream(g, mix(seed, "stream/"+tag))
			parts.streamNS += since(t)
			t = time.Now()
			in := energymis.GreedyMIS(g)
			parts.greedyNS += since(t)
			d.inst = append(d.inst, dynInstance{g: g, in: in, steps: steps, seed: mix(seed, "engine/"+tag)})
		}
		return d, parts, nil
	}
}

// oneBatchPerOp makes every stream batch one op.
func oneBatchPerOp(batches [][]energymis.Update) [][][]energymis.Update {
	out := make([][][]energymis.Update, len(batches))
	for i, b := range batches {
		out[i] = [][]energymis.Update{b}
	}
	return out
}

// attackSteps pairs the hub attack's batches: kill-and-insert, then
// reconnect. Applying each adversary batch on its own keeps the fresh
// replacement isolated until its reconnect batch, which is what forces the
// evictions; re-windowing the flattened stream would merge the two.
func attackSteps(batches [][]energymis.Update) [][][]energymis.Update {
	var out [][][]energymis.Update
	for i := 0; i < len(batches); i += 2 {
		out = append(out, batches[i:min(i+2, len(batches))])
	}
	return out
}

func (d *dynRunner) cycle() int { return len(d.inst) }

func (d *dynRunner) startPass(p int, tr obs.Tracer) (int, error) {
	in := &d.inst[p%len(d.inst)]
	d.cur = in
	var err error
	if tr == nil {
		d.eng, err = energymis.NewDynamicFrom(in.g, in.in, energymis.DynamicOptions{Seed: in.seed})
	} else {
		d.eng, err = dynamic.New(in.g, in.in, dynamic.Params{Seed: in.seed, Tracer: tr})
	}
	return len(in.steps), err
}

func (d *dynRunner) op(i int, _ obs.Tracer, c *counters) error {
	c.ops++
	for _, batch := range d.cur.steps[i] {
		bs, err := d.eng.Apply(batch)
		c.updates += int64(bs.Updates)
		c.rounds += int64(bs.Rounds)
		c.awake += bs.AwakeRounds
		c.messages += bs.Messages
		c.woken += int64(bs.Woken)
		c.evictions += int64(bs.Evictions)
		c.components += int64(bs.Components)
		if bs.Region > 0 {
			c.elections++
		}
		c.regionMax = max(c.regionMax, bs.Region)
		if err != nil {
			return err
		}
		if bs.Violations > 0 {
			return fmt.Errorf("%d CONGEST violations", bs.Violations)
		}
	}
	return nil
}

func (d *dynRunner) check(int) error { return nil }

func (d *dynRunner) endPass(c *counters) error {
	awake := d.eng.AwakePerNode()
	var peak int64
	for _, a := range awake {
		peak = max(peak, a)
	}
	c.passes++
	c.maxAwake += float64(peak)
	if len(awake) > 0 {
		c.avgAwake += float64(d.eng.Stats().AwakeTotal) / float64(len(awake))
	}
	c.sweepWords += d.eng.Perf().SweepWords
	return d.eng.Check()
}
