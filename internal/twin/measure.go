package twin

import (
	"fmt"

	energymis "github.com/energymis/energymis"
)

// SweepSpec pins a measurement sweep so a baseline can be reproduced
// exactly: the graph family, its density parameter, the instance sizes,
// and the number of seeds averaged per size. Graph generation and every
// run are deterministic in these fields, so two Collect calls with the
// same spec on the same code produce identical Measurements — the twin
// gate compares shapes, and determinism keeps it noise-free.
type SweepSpec struct {
	// Family is one of gnp, udg, ba, grid (see FamilyGraph).
	Family string `json:"family"`
	// AvgDeg is the target average degree (gnp edge probability
	// AvgDeg/n, udg radius for that degree, ba attachment m = AvgDeg/2).
	// Grid ignores it (degree is structural).
	AvgDeg float64 `json:"avg_degree"`
	// Sizes are the swept node counts, ascending.
	Sizes []int `json:"sizes"`
	// Seeds is the number of seeds (1..Seeds) averaged per size.
	Seeds int `json:"seeds"`
}

// DefaultSpec is the committed TWIN_MIS.json sweep: the gnp family at
// average degree 10 (the density of the root Go benchmarks), five sizes
// spanning 16×, two seeds. Small enough for a CI job, wide enough to
// separate log n from log² n growth.
func DefaultSpec() SweepSpec {
	return SweepSpec{Family: "gnp", AvgDeg: 10, Sizes: []int{1024, 2048, 4096, 8192, 16384}, Seeds: 2}
}

// Scale returns a copy of the spec with sizes multiplied by f (minimum
// 256, so iterated-log shapes keep headroom) and deduplicated.
func (s SweepSpec) Scale(f float64) SweepSpec {
	out := s
	out.Sizes = nil
	last := -1
	for _, n := range s.Sizes {
		m := int(float64(n) * f)
		if m < 256 {
			m = 256
		}
		if m != last {
			out.Sizes = append(out.Sizes, m)
		}
		last = m
	}
	return out
}

// Families lists the graph families FamilyGraph can build.
func Families() []string { return []string{"gnp", "udg", "ba", "grid"} }

// FamilyGraph builds the spec's graph instance at size n. The generator
// seed is n, matching the root Go benchmarks, so the twin and those
// benchmarks measure the same gnp instances where sizes coincide.
func FamilyGraph(spec SweepSpec, n int) (*energymis.Graph, error) {
	switch spec.Family {
	case "gnp":
		return energymis.GNP(n, spec.AvgDeg/float64(n), uint64(n)), nil
	case "udg":
		return energymis.RandomGeometric(n, energymis.RadiusForAvgDegree(n, spec.AvgDeg), uint64(n)), nil
	case "ba":
		m := int(spec.AvgDeg / 2)
		if m < 1 {
			m = 1
		}
		return energymis.BarabasiAlbert(n, m, uint64(n)), nil
	case "grid":
		side := intSqrt(n)
		return energymis.Grid2D(side, side), nil
	default:
		return nil, fmt.Errorf("twin: unknown graph family %q (have %v)", spec.Family, Families())
	}
}

func intSqrt(n int) int {
	r := 1
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

// Point is one averaged measurement: the metric's value at size N,
// averaged over the spec's seeds.
type Point struct {
	N     int     `json:"n"`
	Value float64 `json:"value"`
}

// Measurements holds one metric series per algorithm, keyed by the
// algorithm's canonical name.
type Measurements map[string]map[Metric][]Point

// Collect runs the sweep: every algorithm on every size, averaged over
// the seeds, verified (each output must be a maximal independent set —
// a twin fit over an invalid run would be meaningless). progress, when
// non-nil, receives one line per completed (algorithm, size) cell.
func Collect(spec SweepSpec, progress func(string)) (Measurements, error) {
	if len(spec.Sizes) == 0 || spec.Seeds < 1 {
		return nil, fmt.Errorf("twin: empty sweep spec %+v", spec)
	}
	ms := Measurements{}
	// One pooled Mem across the whole sweep: identical counters, far
	// fewer allocations (see docs/ARCHITECTURE.md on sim.Mem).
	mem := energymis.NewMem()
	for _, n := range spec.Sizes {
		g, err := FamilyGraph(spec, n)
		if err != nil {
			return nil, err
		}
		for _, algo := range energymis.Algorithms() {
			var rounds, awakeMax, awakeAvg, msgs float64
			for s := 0; s < spec.Seeds; s++ {
				res, err := energymis.RunVerified(g, algo, energymis.Options{Seed: uint64(s) + 1, Mem: mem})
				if err != nil {
					return nil, fmt.Errorf("twin: %s on %s n=%d seed %d: %w", algo, spec.Family, n, s+1, err)
				}
				rounds += float64(res.Rounds)
				awakeMax += float64(res.MaxAwake)
				awakeAvg += res.AvgAwake
				msgs += float64(res.Messages)
			}
			k := float64(spec.Seeds)
			name := algo.String()
			series := ms[name]
			if series == nil {
				series = map[Metric][]Point{}
				ms[name] = series
			}
			for _, mv := range []struct {
				metric Metric
				value  float64
			}{
				{MetricRounds, rounds / k},
				{MetricAwakeMax, awakeMax / k},
				{MetricAwakeAvg, awakeAvg / k},
				{MetricMessages, msgs / k},
			} {
				series[mv.metric] = append(series[mv.metric], Point{N: g.N(), Value: mv.value})
			}
			if progress != nil {
				progress(fmt.Sprintf("twin: %-18s %s n=%-6d rounds=%.1f awakeMax=%.1f awakeAvg=%.2f msgs=%.0f",
					name, spec.Family, g.N(), rounds/k, awakeMax/k, awakeAvg/k, msgs/k))
			}
		}
	}
	return ms, nil
}
