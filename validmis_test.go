package energymis

// Property test: every algorithm produces a set that Check accepts, on
// every graph family, and the dynamic engine's IsValidMIS agrees with an
// independent Check of its snapshot before and after churn. The table is
// algorithm × family × seed with parallel subtests, so `go test -race`
// also exercises concurrent engine instances sharing nothing.

import (
	"fmt"
	"math"
	"testing"
)

// validMISFamilies mirrors the analytical twin's families (internal/twin):
// sparse random, unit-disk, preferential-attachment, and a structured grid.
var validMISFamilies = []struct {
	name string
	gen  func(n int, seed uint64) *Graph
}{
	{"gnp", func(n int, seed uint64) *Graph { return GNP(n, 10/float64(n), seed) }},
	{"udg", func(n int, seed uint64) *Graph {
		return RandomGeometric(n, RadiusForAvgDegree(n, 10), seed)
	}},
	{"ba", func(n int, seed uint64) *Graph { return BarabasiAlbert(n, 5, seed) }},
	{"grid", func(n int, seed uint64) *Graph {
		side := int(math.Sqrt(float64(n)))
		return Grid2D(side, side)
	}},
}

func TestEveryAlgorithmYieldsValidMIS(t *testing.T) {
	const n = 512
	for _, algo := range Algorithms() {
		for _, fam := range validMISFamilies {
			for seed := uint64(1); seed <= 2; seed++ {
				algo, fam, seed := algo, fam, seed
				t.Run(fmt.Sprintf("%s/%s/seed%d", algo, fam.name, seed), func(t *testing.T) {
					t.Parallel()
					g := fam.gen(n, seed)
					res, err := RunVerified(g, algo, Options{Seed: seed})
					if err != nil {
						t.Fatalf("RunVerified: %v", err)
					}
					if err := Check(g, res.InSet); err != nil {
						t.Fatalf("Check rejects RunVerified output: %v", err)
					}
					// Check must not be vacuous: adding a neighbor of a
					// member (or any second node) breaks independence or
					// maximality detectably.
					broken := append([]bool(nil), res.InSet...)
					flipped := false
					for v := 0; v < g.N() && !flipped; v++ {
						if !broken[v] {
							broken[v] = true
							flipped = true
						}
					}
					if flipped && Check(g, broken) == nil {
						t.Fatal("Check accepted a perturbed set")
					}
				})
			}
		}
	}
}

// TestEveryAlgorithmOnTinyGraphs covers the degenerate inputs: the empty
// and one-node graphs. Every phase average must be finite, including the
// 0/0 average of the empty network, and the phases must add up to the
// totals.
func TestEveryAlgorithmOnTinyGraphs(t *testing.T) {
	for _, n := range []int{0, 1} {
		g := NewBuilder(n).Build()
		for _, algo := range Algorithms() {
			t.Run(fmt.Sprintf("%s/n=%d", algo, n), func(t *testing.T) {
				res, err := RunVerified(g, algo, Options{Seed: 1})
				if err != nil {
					t.Fatalf("RunVerified: %v", err)
				}
				if len(res.InSet) != n || res.MISSize() != n {
					t.Fatalf("MIS size %d of %d slots, want %d", res.MISSize(), len(res.InSet), n)
				}
				rounds, msgs, avg := 0, int64(0), 0.0
				for _, p := range res.Phases {
					if math.IsNaN(p.AvgAwake) || math.IsInf(p.AvgAwake, 0) {
						t.Fatalf("phase %s: AvgAwake = %v", p.Name, p.AvgAwake)
					}
					rounds += p.Rounds
					msgs += p.Messages
					avg += p.AvgAwake
				}
				if rounds != res.Rounds || msgs != res.Messages || math.Abs(avg-res.AvgAwake) > 1e-9 {
					t.Fatalf("phase sums rounds=%d msgs=%d avgAwake=%v, totals %d/%d/%v",
						rounds, msgs, avg, res.Rounds, res.Messages, res.AvgAwake)
				}
			})
		}
	}
}

func TestDynamicIsValidMISAgreesWithCheckUnderChurn(t *testing.T) {
	const (
		n     = 400
		steps = 6
		batch = 16
	)
	for _, algo := range Algorithms() {
		for _, fam := range validMISFamilies {
			algo, fam := algo, fam
			t.Run(fmt.Sprintf("%s/%s", algo, fam.name), func(t *testing.T) {
				t.Parallel()
				g := fam.gen(n, 1)
				res, err := RunVerified(g, algo, Options{Seed: 1})
				if err != nil {
					t.Fatalf("RunVerified: %v", err)
				}
				d, err := NewDynamicFrom(g, res.InSet, DynamicOptions{Seed: 1, Window: 8})
				if err != nil {
					t.Fatalf("NewDynamicFrom: %v", err)
				}
				defer d.Close()
				assertAgreement := func(when string) {
					t.Helper()
					sg, _, set := d.Snapshot()
					indep := Check(sg, set) == nil
					if got := d.IsValidMIS(); got != indep {
						t.Fatalf("%s: IsValidMIS()=%v but snapshot Check says %v", when, got, indep)
					}
					if !indep {
						t.Fatalf("%s: maintained set is not a valid MIS", when)
					}
				}
				assertAgreement("bootstrap")
				for i, b := range ChurnStream(g, steps, batch, 7) {
					if _, err := d.ApplyBatch(b); err != nil {
						t.Fatalf("ApplyBatch %d: %v", i, err)
					}
					assertAgreement(fmt.Sprintf("after batch %d", i))
				}
			})
		}
	}
}
