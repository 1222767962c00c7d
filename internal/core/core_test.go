package core

import (
	"math"
	"reflect"
	"regexp"
	"slices"
	"testing"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/shatter"
	"github.com/energymis/energymis/internal/sim"
	"github.com/energymis/energymis/internal/stats"
	"github.com/energymis/energymis/internal/verify"
)

func run(t *testing.T, g *graph.Graph, algo Algorithm, seed uint64) *Result {
	t.Helper()
	opts := DefaultOptions()
	opts.Seed = seed
	res, err := RunVerified(g, algo, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAllAlgorithmsOnFamilies(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"gnp-sparse": graph.GNP(1200, 6.0/1200, 1),
		"gnp-dense":  graph.GNP(600, 0.3, 2),
		"rgg":        graph.RGG(800, 10, 3),
		"ba":         graph.BarabasiAlbert(800, 4, 4),
		"grid":       graph.Grid2D(25, 25),
		"tree":       graph.RandomTree(700, 5),
		"clique":     graph.Complete(150),
		"edgeless":   graph.NewBuilder(60).Build(),
		"cliquechn":  graph.CliqueChain(12, 9),
	}
	for name, g := range graphs {
		for _, algo := range []Algorithm{Luby, Algorithm1, Algorithm2} {
			t.Run(name+"/"+algo.String(), func(t *testing.T) {
				res := run(t, g, algo, 7)
				if got := verify.Count(res.InSet); got == 0 && g.N() > 0 {
					t.Fatal("empty MIS on nonempty graph")
				}
			})
		}
	}
}

func TestManySeeds(t *testing.T) {
	g := graph.GNP(500, 0.02, 11)
	for seed := uint64(0); seed < 6; seed++ {
		run(t, g, Algorithm1, seed)
		run(t, g, Algorithm2, seed)
	}
}

func TestEnergySeparation(t *testing.T) {
	// The paper's headline is asymptotic: Luby's worst-case energy is
	// Θ(log n) while Algorithm 1's is O(log log n). The robustly
	// measurable form at feasible scale: in Luby every node's energy is
	// its decision time, so the awake count grows with log n across a
	// 64x size range, while Algorithm 1's 99th-percentile awake count
	// stays essentially flat (only the largest shattered component pays
	// the Phase III constants).
	gSmall := graph.GNP(1000, 12.0/1000, 13)
	gBig := graph.GNP(64000, 12.0/64000, 14)
	luS := run(t, gSmall, Luby, 1)
	luB := run(t, gBig, Luby, 1)
	a1S := run(t, gSmall, Algorithm1, 1)
	a1B := run(t, gBig, Algorithm1, 1)
	lubyGrowth := luB.Summary.MaxAwake - luS.Summary.MaxAwake
	alg1P99Growth := a1B.Summary.P99Awake - a1S.Summary.P99Awake
	t.Logf("luby maxAwake %d->%d; alg1 p99 %d->%d maxAwake %d->%d",
		luS.Summary.MaxAwake, luB.Summary.MaxAwake,
		a1S.Summary.P99Awake, a1B.Summary.P99Awake,
		a1S.Summary.MaxAwake, a1B.Summary.MaxAwake)
	if lubyGrowth < 3 {
		t.Fatalf("Luby energy growth %d across 64x; expected Θ(log n) growth", lubyGrowth)
	}
	if alg1P99Growth >= lubyGrowth {
		t.Fatalf("Algorithm1 p99 energy growth %d not below Luby growth %d", alg1P99Growth, lubyGrowth)
	}
}

func TestEnergyScalesPolyLogLog(t *testing.T) {
	// All but the unluckiest component sleep nearly always: the average
	// and 99th-percentile awake counts stay flat across a 16x size range.
	small := run(t, graph.GNP(500, 10.0/500, 1), Algorithm1, 3)
	big := run(t, graph.GNP(8000, 10.0/8000, 2), Algorithm1, 3)
	if big.Summary.P99Awake > small.Summary.P99Awake+6 {
		t.Fatalf("p99 energy grew %d -> %d across 16x size", small.Summary.P99Awake, big.Summary.P99Awake)
	}
	if big.Summary.AvgAwake > 2*small.Summary.AvgAwake+4 {
		t.Fatalf("avg energy grew %v -> %v", small.Summary.AvgAwake, big.Summary.AvgAwake)
	}
}

func TestCongestComplianceEndToEnd(t *testing.T) {
	for _, algo := range []Algorithm{Luby, Algorithm1, Algorithm2} {
		g := graph.GNP(1500, 0.01, 17)
		res := run(t, g, algo, 19)
		if res.Summary.Violations != 0 {
			t.Fatalf("%s: %d CONGEST violations (bitsMax=%d)", algo, res.Summary.Violations, res.Summary.BitsMax)
		}
	}
}

func TestDiagnosticsPopulated(t *testing.T) {
	g := graph.GNP(1500, 0.3, 23)
	res := run(t, g, Algorithm1, 29)
	d := res.Diag
	if d.InputMaxDegree == 0 || d.ResidualNodes == 0 {
		t.Fatalf("diag = %+v", d)
	}
	if d.ResidualMaxDegree >= d.InputMaxDegree {
		t.Fatalf("phase I did not reduce degree: %d -> %d", d.InputMaxDegree, d.ResidualMaxDegree)
	}
	log2n := math.Log2(float64(g.N()))
	if float64(d.ResidualMaxDegree) > 4*log2n*log2n {
		t.Fatalf("residual degree %d above O(log² n)", d.ResidualMaxDegree)
	}
}

func TestDeterministicEndToEnd(t *testing.T) {
	g := graph.GNP(600, 0.02, 31)
	for _, algo := range []Algorithm{Algorithm1, Algorithm2} {
		a := run(t, g, algo, 42)
		b := run(t, g, algo, 42)
		for v := range a.InSet {
			if a.InSet[v] != b.InSet[v] {
				t.Fatalf("%s: node %d differs across identical runs", algo, v)
			}
		}
	}
}

func TestUnknownAlgorithm(t *testing.T) {
	if _, err := Run(graph.Path(2), Algorithm(99), DefaultOptions()); err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
}

func TestAlgorithmString(t *testing.T) {
	if Luby.String() != "luby" || Algorithm1.String() != "algorithm1" || Algorithm2.String() != "algorithm2" {
		t.Fatal("String values wrong")
	}
	if Algorithm(0).String() != "Algorithm(0)" {
		t.Fatal("unknown String wrong")
	}
}

func TestAverageEnergyVariants(t *testing.T) {
	g := graph.NearRegular(4000, 24, 41)
	for _, algo := range []Algorithm{Algorithm1Avg, Algorithm2Avg} {
		res := run(t, g, algo, 43)
		base := run(t, g, Algorithm1, 43)
		t.Logf("%s: avg=%.2f max=%d (base avg=%.2f max=%d) failed=%d",
			algo, res.Summary.AvgAwake, res.Summary.MaxAwake,
			base.Summary.AvgAwake, base.Summary.MaxAwake, res.Diag.FailedNodes)
		if res.Summary.AvgAwake > base.Summary.AvgAwake+2 {
			t.Fatalf("%s average energy %v above base %v", algo, res.Summary.AvgAwake, base.Summary.AvgAwake)
		}
	}
}

// TestForcedPhase3Failures drives Phase III into its w.h.p. failure paths
// on a pooled Mem: one Phase II round leaves large survivor components,
// and a finisher with one execution, one attempt and few rounds often
// fails on them. Over seeds 1–40, each run must either end in a valid MIS
// — at least one of them after a fresh-randomness retry
// ("phase-iii.retry1") — or return the documented retry-exhaustion error,
// which at least one seed must hit. After each such error the same Mem
// must run a default Algorithm 1 exactly like a fresh Mem.
func TestForcedPhase3Failures(t *testing.T) {
	g := graph.GNP(300, 4.0/300, 9)
	clean := graph.GNP(500, 0.02, 11)
	want, err := Run(clean, Algorithm1, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	exhausted := regexp.MustCompile(`^core: \d+ nodes undecided after 3 Phase III retries$`)
	for _, algo := range []Algorithm{Algorithm1, Algorithm2} {
		mem := sim.NewMem()
		retried, failed := 0, 0
		for seed := uint64(1); seed <= 40; seed++ {
			opts := DefaultOptions()
			opts.Seed = seed
			opts.Mem = mem
			opts.Shatter = shatter.Params{RoundsC: 0, Floor: 1}
			opts.Phase3.K = 1
			opts.Phase3.GhaffariC = 1
			opts.Phase3.GhaffariFloor = 1
			opts.Phase3.Attempts = 1
			res, err := Run(g, algo, opts)
			if err != nil {
				if !exhausted.MatchString(err.Error()) {
					t.Fatalf("%s seed=%d: unexpected error %v", algo, seed, err)
				}
				failed++
				opts := DefaultOptions()
				opts.Mem = mem
				got, err := Run(clean, Algorithm1, opts)
				if err != nil {
					t.Fatalf("%s seed=%d: clean run on the pooled Mem: %v", algo, seed, err)
				}
				if !slices.Equal(got.InSet, want.InSet) || !reflect.DeepEqual(got.Summary, want.Summary) ||
					!slices.Equal(got.AwakePerNode, want.AwakePerNode) {
					t.Fatalf("%s seed=%d: clean run on the Mem after the error differs from a fresh Mem", algo, seed)
				}
				continue
			}
			if err := verify.Check(g, res.InSet); err != nil {
				t.Fatalf("%s seed=%d: %v", algo, seed, err)
			}
			if res.Diag.Phase3Retries > 0 {
				if !slices.ContainsFunc(res.Summary.Phases, func(p stats.Phase) bool { return p.Name == "phase-iii.retry1" }) {
					t.Fatalf("%s seed=%d: %d retries but no phase-iii.retry1 phase", algo, seed, res.Diag.Phase3Retries)
				}
				retried++
			}
		}
		t.Logf("%s: %d seeds retried and succeeded, %d exhausted their retries", algo, retried, failed)
		if retried == 0 || failed == 0 {
			t.Fatalf("%s: %d retried-and-valid seeds, %d exhausted; want at least one of each", algo, retried, failed)
		}
	}
}
