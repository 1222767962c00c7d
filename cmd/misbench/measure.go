package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"github.com/energymis/energymis/internal/obs"
)

// repsPerRun is the number of set-ups a run splits its ops across. Every
// spread and bound in BENCHMARK.json was sized at this value.
const repsPerRun = 5

// config is one measurement request for a workload.
type config struct {
	seed    uint64
	ops     int  // ops per workload, split evenly across reps
	reps    int  // set-ups, each followed by its share of the ops
	traced  bool // trace every other op (static) or pass (dynamic)
	keepOps int  // traced ops whose spans are kept whole
}

// rep is one repetition: a fresh set-up on rep-specific inputs, then its
// share of the ops. Measurement is a closed loop: one client, one
// goroutine, the next op starts when the previous one returns.
//
// Times are kept in reference nanoseconds: each op's measured time scaled
// by refScale of the median of the reference samples around it (see
// ref.go), the set-up's by the samples taken just before and after it.
type rep struct {
	setupNS    float64
	setupScale float64
	parts      setupParts
	refNS      []int64 // reference kernel samples …
	refAt      []int64 // … and when they ended, since the rep began

	opNS     []float64 // untraced op times
	tracedNS []float64 // traced op times
	rawNS    int64     // Σ measured traced op time (tracer totals are raw)
	plainNS  float64   // Σ untraced op time, and the work those ops did:
	plainC   counters

	allocObjs, allocBytes, gcCycles uint64 // over untraced ops
	checkNS                         int64
	checks                          int

	attempted, failed int
	c                 counters // every op
	tracedComponents  int64    // repair components of the traced passes
	mismatch          string   // a repeated pass disagreed with its first run
	heapLive          float64  // bytes the rep's state holds live after GC
	tr                *tracer
}

var rtMetrics = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

type rtReading [4]uint64

func readRuntime(s []metrics.Sample) rtReading {
	metrics.Read(s)
	var r rtReading
	for i := range s {
		r[i] = s[i].Value.Uint64()
	}
	return r
}

func runtimeSamples() []metrics.Sample {
	s := make([]metrics.Sample, len(rtMetrics))
	for i, name := range rtMetrics {
		s[i].Name = name
	}
	return s
}

func heapLiveBytes() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// measure runs cfg.reps repetitions of workload w.
func measure(w workload, cfg config) ([]*rep, error) {
	ref := newRefKernel()
	per := (cfg.ops + cfg.reps - 1) / cfg.reps
	reps := make([]*rep, 0, cfg.reps)
	for i := 0; i < cfg.reps; i++ {
		r, err := measureRep(w, cfg, i, per, ref)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		reps = append(reps, r)
	}
	return reps, nil
}

// timedOp is one op's measured time and when it ended.
type timedOp struct {
	ns, at int64
	traced bool
}

func measureRep(w workload, cfg config, idx, n int, ref *refKernel) (*rep, error) {
	// What is live before the set-up (the reference kernel, earlier reps'
	// records) is not the workload's: heapLive is the growth over it.
	runtime.GC()
	baseHeap := heapLiveBytes()
	begin := time.Now()
	r := &rep{}
	sample := func() {
		r.refNS = append(r.refNS, ref.run())
		r.refAt = append(r.refAt, since(begin))
	}
	sample()
	t0 := time.Now()
	run, parts, err := w.setup(cfg.seed, idx)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setupNS := since(t0)
	r.parts = parts
	sample()
	r.setupScale = refScale(median([]float64{float64(r.refNS[0]), float64(r.refNS[1])}))
	r.setupNS = float64(setupNS) * r.setupScale
	if cfg.traced {
		r.tr = newTracer(cfg.keepOps)
	}
	// Dynamic reps run whole cycles of passes, so every input instance is
	// replayed equally often; a traced rep alternates untraced and traced
	// cycles (dynamic) or ops (static) and needs one of each at least.
	cyc := run.cycle()
	firsts := make([]*counters, cyc)
	rt := runtimeSamples()
	var ops []timedOp
	lastRef := time.Now()
	for p, done := 0, 0; ; p++ {
		if cyc == 0 && p > 0 {
			break
		}
		if cyc > 0 && p%cyc == 0 && done >= n && (!cfg.traced || p >= 2*cyc) {
			break
		}
		passTraced := cfg.traced && cyc > 0 && p/cyc%2 == 1
		var passTr obs.Tracer
		if passTraced {
			passTr = r.tr
		}
		k, err := run.startPass(p, passTr)
		if err != nil {
			return nil, fmt.Errorf("start pass: %w", err)
		}
		if cyc == 0 {
			k = n
			if cfg.traced {
				k = max(k, 2)
			}
		}
		var c counters
		for i := 0; i < k; i, done = i+1, done+1 {
			traced := passTraced || (cfg.traced && cyc == 0 && i%2 == 1)
			before := c
			var opTr obs.Tracer
			var rb rtReading
			if traced {
				r.tr.beginOp()
				if cyc == 0 {
					opTr = r.tr
				}
			} else {
				rb = readRuntime(rt)
			}
			start := time.Now()
			opErr := run.op(i, opTr, &c)
			d := since(start)
			ops = append(ops, timedOp{ns: d, at: since(begin), traced: traced})
			if traced {
				r.tr.endOp(d)
				r.rawNS += d
			} else {
				ra := readRuntime(rt)
				r.allocObjs += ra[0] + ra[1] - rb[0] - rb[1]
				r.allocBytes += ra[2] - rb[2]
				r.gcCycles += ra[3] - rb[3]
				r.plainC.ops++
				r.plainC.updates += c.updates - before.updates
				r.plainC.awake += c.awake - before.awake
			}
			start = time.Now()
			checkErr := run.check(i)
			if cyc == 0 {
				r.checkNS += since(start)
				r.checks++
			}
			r.attempted++
			if opErr != nil || checkErr != nil {
				r.failed++
			}
			if time.Since(lastRef) > refInterval {
				sample()
				lastRef = time.Now()
			}
		}
		start := time.Now()
		if err := run.endPass(&c); err != nil {
			// The pass's final state is invalid: count it against its last op.
			r.failed++
		}
		if cyc > 0 {
			r.checkNS += since(start)
			r.checks++
			if j := p % cyc; firsts[j] == nil {
				firsts[j] = &c
			} else if c != *firsts[j] && r.mismatch == "" {
				r.mismatch = fmt.Sprintf("rep %d pass %d counters %+v differ from pass %d %+v", idx, p, c, j, *firsts[j])
			}
		}
		r.c.add(c)
		if passTraced {
			r.tracedComponents += c.components
		}
	}
	sample()
	r.scaleOps(ops)
	runtime.GC()
	r.heapLive = heapLiveBytes() - baseHeap - r.recordBytes()
	runtime.KeepAlive(run)
	return r, nil
}

// recordBytes is the size of the rep's own per-op records, which grow with
// the op count and are the harness's, not the workload's.
func (r *rep) recordBytes() float64 {
	return float64(8 * (cap(r.refNS) + cap(r.refAt) + cap(r.opNS) + cap(r.tracedNS)))
}

// scaleOps converts the measured op times to reference nanoseconds, each
// by the median of the two reference samples before and the two after it.
func (r *rep) scaleOps(ops []timedOp) {
	j := 0
	for _, o := range ops {
		for j < len(r.refAt) && r.refAt[j] < o.at {
			j++
		}
		var near []float64
		for _, ns := range r.refNS[max(j-2, 0):min(j+2, len(r.refNS))] {
			near = append(near, float64(ns))
		}
		v := float64(o.ns) * refScale(median(near))
		if o.traced {
			r.tracedNS = append(r.tracedNS, v)
			continue
		}
		r.opNS = append(r.opNS, v)
		r.plainNS += v
	}
}

// metric is one reported value. Samples is the number of measurements
// behind a timing; Spread is the quartile spread of the per-rep values as
// a share of their median (0 for a single rep).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Spread  float64 `json:"spread"`
}

// percentile is the nearest-rank p-th percentile of sorted xs and the
// sample count it was taken from.
func percentile(sorted []float64, p float64) (float64, int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	i := int(math.Ceil(p/100*float64(n))) - 1
	return sorted[min(max(i, 0), n-1)], n
}

// quartiles returns Q1 and Q3 by the same rule as Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method).
func quartiles(xs []float64) (q1, q3 float64) {
	d := slices.Clone(xs)
	slices.Sort(d)
	ld := len(d)
	if ld < 2 {
		if ld == 1 {
			return d[0], d[0]
		}
		return 0, 0
	}
	q := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func median(xs []float64) float64 {
	d := slices.Clone(xs)
	slices.Sort(d)
	n := len(d)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// spread is (Q3 − Q1) / median of xs.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// hostScale is refScale of the median reference time over every rep,
// the factor that converts a time measured apart from any op to reference
// nanoseconds, and that median.
func hostScale(reps []*rep) (scale, refNS float64) {
	var xs []float64
	for _, r := range reps {
		for _, ns := range r.refNS {
			xs = append(xs, float64(ns))
		}
	}
	refNS = median(xs)
	return refScale(refNS), refNS
}

// perRep builds a metric whose value is the median of f over reps.
func perRep(reps []*rep, unit string, f func(*rep) float64) metric {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return metric{Value: median(xs), Unit: unit, Spread: spread(xs)}
}

// perRepMean is perRep with the mean of f over reps as the value.
func perRepMean(reps []*rep, unit string, f func(*rep) float64) metric {
	m := perRep(reps, unit, f)
	m.Value = 0
	for _, r := range reps {
		m.Value += f(r) / float64(len(reps))
	}
	return m
}

// pooled builds a metric from f applied to all reps pooled together (the
// value) and to each rep alone (the spread).
func pooled(reps []*rep, unit string, f func([]*rep) (float64, int)) metric {
	v, n := f(reps)
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i], _ = f([]*rep{r})
	}
	return metric{Value: v, Unit: unit, Samples: n, Spread: spread(xs)}
}

// opPercentile is the p-th percentile op time in reference seconds.
func opPercentile(p float64, traced bool) func([]*rep) (float64, int) {
	return func(reps []*rep) (float64, int) {
		var all []float64
		for _, r := range reps {
			if traced {
				all = append(all, r.tracedNS...)
			} else {
				all = append(all, r.opNS...)
			}
		}
		slices.Sort(all)
		v, n := percentile(all, p)
		return v / 1e9, n
	}
}

// plain sums the untraced ops of reps: their time and their work.
func plain(reps []*rep) (ns float64, c counters) {
	for _, r := range reps {
		ns += r.plainNS
		c.add(r.plainC)
	}
	return ns, c
}

// runtimePerOp averages a runtime counter over the untraced ops.
func runtimePerOp(f func(*rep) uint64) func([]*rep) (float64, int) {
	return func(rs []*rep) (float64, int) {
		var v uint64
		for _, r := range rs {
			v += f(r)
		}
		_, c := plain(rs)
		return float64(v) / float64(max(c.ops, 1)), c.ops
	}
}

// total sums every op's counters over reps.
func total(reps []*rep) counters {
	var c counters
	for _, r := range reps {
		c.add(r.c)
	}
	return c
}

// endToEnd derives the metrics a user of the simulator sees from the
// untraced ops. Times are in reference seconds (see ref.go); timings pool
// every rep's samples and report the sample count.
func endToEnd(reps []*rep, dynamic bool) map[string]metric {
	_, refNS := hostScale(reps)
	m := map[string]metric{
		"setup_s":  perRep(reps, "s", func(r *rep) float64 { return r.setupNS / 1e9 }),
		"op_s.p50": pooled(reps, "s", opPercentile(50, false)),
		"op_s.p90": pooled(reps, "s", opPercentile(90, false)),
		// Runs per second for static workloads, updates per second for
		// dynamic ones: the unit of work a user submits.
		"throughput": pooled(reps, "1/s", func(rs []*rep) (float64, int) {
			ns, c := plain(rs)
			work := float64(c.ops)
			if dynamic {
				work = float64(c.updates)
			}
			return work / (ns / 1e9), c.ops
		}),
		"ns_per_awake_node_round": pooled(reps, "ns", func(rs []*rep) (float64, int) {
			ns, c := plain(rs)
			return ns / float64(c.awake), c.ops
		}),
		"allocs_per_op": pooled(reps, "count", runtimePerOp(func(r *rep) uint64 { return r.allocObjs })),
		// The mean, not the median: a set-up's reading jumps by a whole
		// buffer doubling when its inputs cross a size, and the mean of the
		// set-ups moves by a share of that jump.
		"heap_live_mb": perRepMean(reps, "MB", func(r *rep) float64 { return r.heapLive / (1 << 20) }),
		"fail_frac": pooled(reps, "fraction", func(rs []*rep) (float64, int) {
			var att, fail int
			for _, r := range rs {
				att += r.attempted
				fail += r.failed
			}
			return float64(fail) / float64(att), att
		}),
		"host.ref_s": {Value: refNS / 1e9, Unit: "s"},
	}
	c := total(reps)
	if c.ops == 0 {
		return m
	}
	ops := float64(c.ops)
	m["rounds"] = metric{Value: float64(c.rounds) / ops, Unit: "rounds/op"}
	m["messages"] = metric{Value: float64(c.messages) / ops, Unit: "count/op"}
	if dynamic {
		m["op_s.p99"] = pooled(reps, "s", opPercentile(99, false))
		m["updates_per_s"] = m["throughput"]
		m["awake_max"] = metric{Value: c.maxAwake / float64(c.passes), Unit: "rounds"}
		m["awake_avg"] = metric{Value: c.avgAwake / float64(c.passes), Unit: "rounds"}
		m["awake_per_update"] = metric{Value: float64(c.awake) / float64(c.updates), Unit: "rounds"}
	} else {
		m["awake_max"] = metric{Value: c.maxAwake / ops, Unit: "rounds"}
		m["awake_avg"] = metric{Value: c.avgAwake / ops, Unit: "rounds"}
	}
	return m
}

// perLayer derives the per-layer metrics of a traced measurement. Layer
// times are means per traced op in reference seconds; every *_frac is a
// share of the traced op time (core.run_s), so the shares of an op add up
// to 1: glue, phase self times and engine rounds on static runs, self and
// election time on dynamic ones.
func perLayer(reps []*rep, dynamic bool) map[string]metric {
	hostS, refNS := hostScale(reps)
	// The tracer's totals are measured nanoseconds; traced ops were scaled
	// one by one, so their totals' ratio converts the tracer's sums.
	var scaled, raw float64
	for _, r := range reps {
		for _, ns := range r.tracedNS {
			scaled += ns
		}
		raw += float64(r.rawNS)
	}
	scale := scaled / max(raw, 1)
	var ops int
	var opNS, coveredNS, electNS, singletons, retries, awakeAll int64
	layers := map[string]*layerAcc{}
	for _, r := range reps {
		t := r.tr
		ops += t.ops
		opNS += t.opNS
		coveredNS += t.coveredNS
		electNS += t.electNS
		singletons += t.singletons
		retries += t.retries
		awakeAll += t.awakeAll
		for k, a := range t.layers {
			acc := layers[k]
			if acc == nil {
				acc = &layerAcc{analytic: a.analytic}
				layers[k] = acc
			}
			acc.spanNS += a.spanNS
			acc.engineNS += a.engineNS
			acc.rounds += a.rounds
			acc.awake += a.awake
			acc.sent += a.sent
			acc.dropped += a.dropped
		}
	}
	m := map[string]metric{"host.ref_s": {Value: refNS / 1e9, Unit: "s"}}
	if ops == 0 {
		return m
	}
	perOp := func(ns int64) float64 { return float64(ns) * scale / 1e9 / float64(ops) }
	sec := func(name string, ns int64) { m[name+"_s"] = metric{Value: perOp(ns), Unit: "s"} }
	share := func(name string, ns int64) { m[name] = metric{Value: float64(ns) / float64(opNS), Unit: "fraction"} }
	count := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	m["core.run_s"] = metric{Value: perOp(opNS), Unit: "s", Samples: ops}

	var phaseNS, engNS, engRounds, engAwake, sent, dropped int64
	for _, a := range layers {
		phaseNS += a.spanNS
		if !a.analytic {
			engNS += a.engineNS
			engRounds += a.rounds
			engAwake += a.awake
			sent += a.sent
			dropped += a.dropped
		}
	}
	get := func(k string) layerAcc {
		if a := layers[k]; a != nil {
			return *a
		}
		return layerAcc{}
	}
	for _, l := range []string{"phase1", "degreduce", "shatter", "phase3", "luby"} {
		a := get(l)
		sec(l+".span", a.spanNS)
		sec(l+".engine", a.engineNS)
		share(l+".frac", a.spanNS)
		share(l+".engine_frac", a.engineNS)
	}
	dr := get("degreduce")
	sec("degreduce.driver", dr.spanNS-dr.engineNS)
	share("degreduce.driver_frac", dr.spanNS-dr.engineNS)

	var glue, self, elect int64
	conservation := 0.0
	if dynamic {
		elect, self = electNS, opNS-electNS
	} else {
		glue = opNS - phaseNS
		// How well the two clocks agree bounds every static share's error.
		conservation = conservationErr(phaseNS, coveredNS, opNS)
	}
	sec("pipeline.glue", glue)
	share("pipeline.glue_frac", glue)
	sec("dynamic.self", self)
	sec("dynamic.elect", elect)
	share("dynamic.self_frac", self)
	share("dynamic.elect_frac", elect)
	count("obs.conservation_err", "fraction", conservation)

	sec("sim.round", engNS)
	share("sim.engine_frac", engNS)
	count("sim.rounds", "rounds/op", float64(engRounds)/float64(ops))
	count("sim.awake_node_rounds", "count/op", float64(engAwake)/float64(ops))
	count("sim.msgs", "count/op", float64(sent)/float64(ops))
	nsPer := 0.0
	if engAwake > 0 {
		nsPer = float64(engNS) * scale / float64(engAwake)
	}
	count("sim.ns_per_awake_node_round", "ns", nsPer)
	delivered := 1.0 // nothing sent, nothing wasted
	if sent > 0 {
		delivered = 1 - float64(dropped)/float64(sent)
	}
	count("sim.delivered_frac", "fraction", delivered)
	count("phase3.retries", "count/op", float64(retries)/float64(ops))

	// Dynamic counters over every op (the same work traced or not).
	c := total(reps)
	var tracedComponents int64
	for _, r := range reps {
		tracedComponents += r.tracedComponents
	}
	perUpdate := func(v int64) float64 { return float64(v) / float64(max(c.updates, 1)) }
	perOpC := func(v int64) float64 { return float64(v) / float64(max(c.ops, 1)) }
	singletonFrac := 0.0
	if tracedComponents > 0 {
		singletonFrac = float64(singletons) / float64(tracedComponents)
	}
	count("dynamic.woken_per_update", "count", perUpdate(c.woken))
	count("dynamic.evictions_per_update", "count", perUpdate(c.evictions))
	count("dynamic.region_max", "count", float64(c.regionMax))
	count("dynamic.components_per_op", "count/op", perOpC(c.components))
	count("dynamic.singleton_frac", "fraction", singletonFrac)
	count("dynamic.elections_per_op", "count/op", perOpC(c.elections))
	count("bitvec.sweep_words_per_update", "count", perUpdate(c.sweepWords))

	m["verify.check_s"] = pooled(reps, "s", func(rs []*rep) (float64, int) {
		var ns int64
		var n int
		for _, r := range rs {
			ns += r.checkNS
			n += r.checks
		}
		return float64(ns) * hostS / 1e9 / float64(max(n, 1)), n
	})
	setupPart := func(f func(setupParts) int64) func(*rep) float64 {
		return func(r *rep) float64 { return float64(f(r.parts)) * r.setupScale / 1e9 }
	}
	m["verify.greedy_s"] = perRep(reps, "s", setupPart(func(p setupParts) int64 { return p.greedyNS }))
	m["graph.gen_s"] = perRep(reps, "s", setupPart(func(p setupParts) int64 { return p.graphNS }))
	m["stream.gen_s"] = perRep(reps, "s", setupPart(func(p setupParts) int64 { return p.streamNS }))
	m["runtime.gc_cycles_per_op"] = pooled(reps, "count", runtimePerOp(func(r *rep) uint64 { return r.gcCycles }))
	m["runtime.allocs_per_op"] = pooled(reps, "count", runtimePerOp(func(r *rep) uint64 { return r.allocObjs }))
	m["runtime.alloc_bytes_per_op"] = pooled(reps, "B", runtimePerOp(func(r *rep) uint64 { return r.allocBytes }))
	untraced, _ := opPercentile(50, false)(reps)
	traced, _ := opPercentile(50, true)(reps)
	if untraced > 0 {
		count("obs.overhead_frac", "fraction", traced/untraced-1)
	}
	return m
}
