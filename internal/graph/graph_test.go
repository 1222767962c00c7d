package graph

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate (reversed)
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 2) // self loop, dropped
	b.AddEdge(3, 1)
	g := b.Build()
	if g.N() != 4 {
		t.Fatalf("N = %d, want 4", g.N())
	}
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || !g.HasEdge(1, 3) {
		t.Fatal("expected edges missing")
	}
	if g.HasEdge(0, 2) || g.HasEdge(2, 2) {
		t.Fatal("unexpected edges present")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge out of range did not panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 2)
}

func TestDegrees(t *testing.T) {
	g := Star(5)
	if g.Degree(0) != 4 {
		t.Fatalf("star center degree = %d", g.Degree(0))
	}
	for v := 1; v < 5; v++ {
		if g.Degree(v) != 1 {
			t.Fatalf("leaf %d degree = %d", v, g.Degree(v))
		}
	}
	if g.MaxDegree() != 4 {
		t.Fatalf("MaxDegree = %d", g.MaxDegree())
	}
	if got := g.AvgDegree(); math.Abs(got-8.0/5) > 1e-9 {
		t.Fatalf("AvgDegree = %v", got)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.N() != 0 || g.M() != 0 || g.MaxDegree() != 0 || g.AvgDegree() != 0 {
		t.Fatal("empty graph stats wrong")
	}
	if len(Components(g)) != 0 {
		t.Fatal("empty graph has components")
	}
	if DiameterLowerBound(g) != 0 {
		t.Fatal("empty graph diameter != 0")
	}
}

func TestComponents(t *testing.T) {
	// Two triangles and an isolated node.
	g := FromEdges(7, [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}})
	comps := Components(g)
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3", len(comps))
	}
	if len(comps[0]) != 3 || comps[0][0] != 0 {
		t.Fatalf("first component wrong: %v", comps[0])
	}
	if len(comps[2]) != 1 || comps[2][0] != 6 {
		t.Fatalf("isolated node component wrong: %v", comps[2])
	}
}

func TestBFSAndDiameter(t *testing.T) {
	g := Path(10)
	d := BFS(g, 0)
	for v := 0; v < 10; v++ {
		if int(d[v]) != v {
			t.Fatalf("BFS dist to %d = %d", v, d[v])
		}
	}
	if got := DiameterLowerBound(g); got != 9 {
		t.Fatalf("path diameter = %d, want 9", got)
	}
	if got := Eccentricity(g, 5); got != 5 {
		t.Fatalf("ecc(5) = %d, want 5", got)
	}
	// Disconnected: unreachable nodes report -1.
	g2 := FromEdges(3, [][2]int{{0, 1}})
	if BFS(g2, 0)[2] != -1 {
		t.Fatal("unreachable distance not -1")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := Cycle(6)
	sub := InducedSubgraph(g, []int{0, 1, 2, 4})
	if sub.N() != 4 {
		t.Fatalf("sub N = %d", sub.N())
	}
	// Edges kept: (0,1), (1,2). Node 4 is isolated in the subgraph.
	if sub.M() != 2 {
		t.Fatalf("sub M = %d, want 2", sub.M())
	}
	if !sub.HasEdge(0, 1) || !sub.HasEdge(1, 2) || sub.Degree(3) != 0 {
		t.Fatal("subgraph structure wrong")
	}
	for i, want := range []int32{0, 1, 2, 4} {
		if sub.Orig[i] != want {
			t.Fatalf("Orig[%d] = %d, want %d", i, sub.Orig[i], want)
		}
	}
}

// assertInducedPanics checks that InducedSubgraph rejects each keep list.
func assertInducedPanics(t *testing.T, g *Graph, keeps ...[]int) {
	t.Helper()
	for _, keep := range keeps {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("InducedSubgraph(keep=%v) on %d nodes did not panic", keep, g.N())
				}
			}()
			InducedSubgraph(g, keep)
		}()
	}
}

func TestInducedSubgraphDuplicatePanics(t *testing.T) {
	assertInducedPanics(t, Path(3), []int{0, 0}, []int{2, 0, 2})
}

func TestInducedSubgraphOutOfRangePanics(t *testing.T) {
	assertInducedPanics(t, Path(3), []int{-1}, []int{0, 3}, []int{5, 1})
}

// naiveInducedSubgraph is the reference construction the CSR filter must
// reproduce: a hash map from parent to local index and one separately
// sorted row per kept node, sharing no code with InducedSubgraph.
func naiveInducedSubgraph(g *Graph, keep []int) *Subgraph {
	local := make(map[int32]int32, len(keep))
	orig := make([]int32, len(keep))
	for i, v := range keep {
		local[int32(v)] = int32(i)
		orig[i] = int32(v)
	}
	offsets := []int32{0}
	var adj []int32
	for _, v := range keep {
		var row []int32
		for _, u := range g.Neighbors(v) {
			if j, ok := local[u]; ok {
				row = append(row, j)
			}
		}
		sort.Slice(row, func(a, b int) bool { return row[a] < row[b] })
		adj = append(adj, row...)
		offsets = append(offsets, int32(len(adj)))
	}
	return &Subgraph{Graph: &Graph{offsets: offsets, adj: adj}, Orig: orig}
}

// greedyIndependent returns an ascending independent set of g: every node
// of it is isolated in the subgraph it induces.
func greedyIndependent(g *Graph) []int {
	blocked := make([]bool, g.N())
	var set []int
	for v := 0; v < g.N(); v++ {
		if !blocked[v] {
			set = append(set, v)
			for _, u := range g.Neighbors(v) {
				blocked[u] = true
			}
		}
	}
	return set
}

func TestInducedSubgraphMatchesNaive(t *testing.T) {
	graphs := []struct {
		name string
		g    *Graph
	}{
		{"gnp", GNP(600, 0.02, 3)},
		{"gnp-sparse", GNP(400, 0.002, 4)}, // many isolated parent nodes
		{"ba", BarabasiAlbert(500, 4, 5)},
		{"grid", Grid2D(17, 23)},
	}
	for _, c := range graphs {
		n := c.g.N()
		r := rand.New(rand.NewSource(int64(n)))
		all := make([]int, n)
		for v := range all {
			all[v] = v
		}
		var half []int
		for v := 0; v < n; v++ {
			if r.Intn(2) == 0 {
				half = append(half, v)
			}
		}
		shuffled := append([]int(nil), half...)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		allShuffled := append([]int(nil), all...)
		r.Shuffle(n, func(i, j int) { allShuffled[i], allShuffled[j] = allShuffled[j], allShuffled[i] })
		indep := greedyIndependent(c.g)
		// An independent set plus a few of its neighbours: mostly isolated
		// nodes with some edges among the additions.
		mixed := append([]int(nil), indep...)
		inMixed := make([]bool, n)
		for _, v := range indep {
			inMixed[v] = true
		}
		for _, v := range indep[:len(indep)/4] {
			for _, u := range c.g.Neighbors(v) {
				if !inMixed[u] {
					inMixed[u] = true
					mixed = append(mixed, int(u))
				}
			}
		}
		keeps := []struct {
			name string
			keep []int
		}{
			{"ascending", half},
			{"shuffled", shuffled},
			{"empty", nil},
			{"singleton", []int{n / 2}},
			{"all", all},
			{"all-shuffled", allShuffled},
			{"independent", indep},
			{"independent+neighbours", mixed},
		}
		for _, k := range keeps {
			got := InducedSubgraph(c.g, k.keep)
			want := naiveInducedSubgraph(c.g, k.keep)
			where := c.name + "/" + k.name
			if err := got.Validate(); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			if got.N() != len(k.keep) || got.M() != want.M() {
				t.Fatalf("%s: N=%d M=%d, want N=%d M=%d", where, got.N(), got.M(), len(k.keep), want.M())
			}
			if !slices.Equal(got.Orig, want.Orig) || !slices.Equal(got.offsets, want.offsets) {
				t.Fatalf("%s: Orig or offsets differ from the reference", where)
			}
			for v := 0; v < got.N(); v++ {
				if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) {
					t.Fatalf("%s: row %d = %v, want %v", where, v, got.Neighbors(v), want.Neighbors(v))
				}
			}
			if k.name == "independent" && got.M() != 0 {
				t.Fatalf("%s: independent keep set induced %d edges", where, got.M())
			}
			if k.name == "all" && got.M() != c.g.M() {
				t.Fatalf("%s: keeping every node lost edges: M=%d, want %d", where, got.M(), c.g.M())
			}
		}
	}
}

func TestGeneratorsValidate(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
	}{
		{"gnp", GNP(500, 0.02, 1)},
		{"gnp-empty", GNP(100, 0, 1)},
		{"gnp-full", GNP(20, 1, 1)},
		{"rgg", RGG(500, 8, 2)},
		{"ba", BarabasiAlbert(300, 3, 3)},
		{"grid", Grid2D(11, 13)},
		{"torus", Torus2D(8, 9)},
		{"cycle", Cycle(50)},
		{"path", Path(50)},
		{"star", Star(50)},
		{"complete", Complete(20)},
		{"bipartite", CompleteBipartite(5, 7)},
		{"rtree", RandomTree(200, 4)},
		{"nearreg", NearRegular(200, 6, 5)},
		{"caterpillar", Caterpillar(10, 3)},
		{"cliquechain", CliqueChain(5, 6)},
	}
	for _, c := range cases {
		if err := c.g.Validate(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

func TestGNPDensity(t *testing.T) {
	n, p := 2000, 0.01
	g := GNP(n, p, 7)
	want := p * float64(n) * float64(n-1) / 2
	got := float64(g.M())
	if math.Abs(got-want) > 6*math.Sqrt(want) {
		t.Fatalf("GNP edges = %v, want ~%v", got, want)
	}
}

func TestGNPDeterministic(t *testing.T) {
	a := GNP(300, 0.05, 99)
	b := GNP(300, 0.05, 99)
	if a.M() != b.M() {
		t.Fatal("GNP not deterministic")
	}
	for v := 0; v < a.N(); v++ {
		na, nb := a.Neighbors(v), b.Neighbors(v)
		if len(na) != len(nb) {
			t.Fatal("GNP adjacency differs")
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatal("GNP adjacency differs")
			}
		}
	}
}

func TestCompleteStructure(t *testing.T) {
	g := Complete(10)
	if g.M() != 45 {
		t.Fatalf("K10 edges = %d", g.M())
	}
	for v := 0; v < 10; v++ {
		if g.Degree(v) != 9 {
			t.Fatalf("K10 degree(%d) = %d", v, g.Degree(v))
		}
	}
}

func TestRandomTreeIsTree(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		g := RandomTree(100, seed)
		if g.M() != 99 {
			t.Fatalf("tree edges = %d", g.M())
		}
		if len(Components(g)) != 1 {
			t.Fatal("tree not connected")
		}
	}
}

func TestBarabasiAlbertDegrees(t *testing.T) {
	g := BarabasiAlbert(500, 3, 11)
	if g.N() != 500 {
		t.Fatalf("BA N = %d", g.N())
	}
	// Every non-core node attaches with m distinct edges.
	if g.M() < 3*(500-4) {
		t.Fatalf("BA M = %d too small", g.M())
	}
	// Heavy tail: max degree should well exceed the mean.
	if float64(g.MaxDegree()) < 3*g.AvgDegree() {
		t.Fatalf("BA max degree %d not heavy-tailed vs avg %v", g.MaxDegree(), g.AvgDegree())
	}
}

func TestGrid2D(t *testing.T) {
	g := Grid2D(3, 4)
	if g.N() != 12 {
		t.Fatalf("grid N = %d", g.N())
	}
	if g.M() != 3*3+2*4 {
		t.Fatalf("grid M = %d", g.M())
	}
	if g.MaxDegree() != 4 {
		t.Fatalf("grid max degree = %d", g.MaxDegree())
	}
}

func TestTorusRegular(t *testing.T) {
	g := Torus2D(5, 5)
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("torus degree(%d) = %d", v, g.Degree(v))
		}
	}
}

func TestCliqueChain(t *testing.T) {
	g := CliqueChain(3, 4)
	if g.N() != 12 {
		t.Fatalf("N = %d", g.N())
	}
	if len(Components(g)) != 1 {
		t.Fatal("clique chain not connected")
	}
	// A middle clique's first node has 3 clique neighbors plus a bridge to
	// each adjacent clique.
	if g.MaxDegree() != 5 {
		t.Fatalf("max degree = %d", g.MaxDegree())
	}
}

func TestNearRegularDegrees(t *testing.T) {
	g := NearRegular(400, 8, 3)
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > 8 {
			t.Fatalf("NearRegular degree(%d) = %d > 8", v, d)
		}
	}
	if g.AvgDegree() < 6 {
		t.Fatalf("NearRegular avg degree %v too low", g.AvgDegree())
	}
}

func TestFamiliesCatalog(t *testing.T) {
	for _, fam := range Families(8) {
		g := fam.Make(200, 1)
		if err := g.Validate(); err != nil {
			t.Errorf("family %s: %v", fam.Name, err)
		}
		if g.N() == 0 {
			t.Errorf("family %s produced empty graph", fam.Name)
		}
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := Star(5)
	h := DegreeHistogram(g)
	if len(h) != 5 {
		t.Fatalf("hist len = %d", len(h))
	}
	if h[1] != 4 || h[4] != 1 {
		t.Fatalf("hist = %v", h)
	}
}

// Property: build from random edge list always yields a valid graph whose
// HasEdge agrees with the input set.
func TestBuildProperty(t *testing.T) {
	f := func(nRaw uint8, pairs [][2]uint8) bool {
		n := int(nRaw%50) + 2
		b := NewBuilder(n)
		want := map[[2]int]bool{}
		for _, p := range pairs {
			u, v := int(p[0])%n, int(p[1])%n
			b.AddEdge(u, v)
			if u != v {
				if u > v {
					u, v = v, u
				}
				want[[2]int{u, v}] = true
			}
		}
		g := b.Build()
		if g.Validate() != nil {
			return false
		}
		if g.M() != len(want) {
			return false
		}
		for e := range want {
			if !g.HasEdge(e[0], e[1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDegreesSorted(t *testing.T) {
	ds := Degrees(BarabasiAlbert(100, 2, 1))
	for i := 1; i < len(ds); i++ {
		if ds[i] > ds[i-1] {
			t.Fatal("Degrees not descending")
		}
	}
}

func TestRandomGeometricDeterministicAndValid(t *testing.T) {
	a := RandomGeometric(500, 0.05, 9)
	b := RandomGeometric(500, 0.05, 9)
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatalf("same seed differs: %d/%d edges", a.M(), b.M())
	}
	for v := 0; v < a.N(); v++ {
		av, bv := a.Neighbors(v), b.Neighbors(v)
		if len(av) != len(bv) {
			t.Fatalf("node %d adjacency differs", v)
		}
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("node %d adjacency differs at %d", v, i)
			}
		}
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if c := RandomGeometric(500, 0.05, 10); c.M() == a.M() {
		t.Logf("different seeds gave equal edge counts (possible, suspicious): %d", a.M())
	}
}

func TestRandomGeometricDensityScalesWithN(t *testing.T) {
	// Fixed radius: expected degree is (n-1)·π·r², so doubling n roughly
	// doubles the average degree — the sensor-field scenario RGG hides.
	const rad = 0.04
	small := RandomGeometric(2000, rad, 3)
	large := RandomGeometric(4000, rad, 3)
	want := func(n int) float64 { return float64(n-1) * math.Pi * rad * rad }
	if d := small.AvgDegree(); d < 0.7*want(2000) || d > 1.3*want(2000) {
		t.Fatalf("n=2000 avg degree %.2f, expected ≈%.2f", d, want(2000))
	}
	if d := large.AvgDegree(); d < 0.7*want(4000) || d > 1.3*want(4000) {
		t.Fatalf("n=4000 avg degree %.2f, expected ≈%.2f", d, want(4000))
	}
	if large.AvgDegree() < 1.5*small.AvgDegree() {
		t.Fatalf("density did not scale: %.2f -> %.2f", small.AvgDegree(), large.AvgDegree())
	}
}

func TestRandomGeometricEdgeCases(t *testing.T) {
	if g := RandomGeometric(100, 0, 1); g.M() != 0 {
		t.Fatalf("radius 0 produced %d edges", g.M())
	}
	if g := RandomGeometric(100, -1, 1); g.M() != 0 {
		t.Fatalf("negative radius produced %d edges", g.M())
	}
	if g := RandomGeometric(0, 0.1, 1); g.N() != 0 {
		t.Fatalf("n=0 produced %d nodes", g.N())
	}
	if g := RandomGeometric(50, 2, 1); g.M() != 50*49/2 {
		t.Fatalf("radius covering the square should give a clique, got %d edges", g.M())
	}
}

func TestRGGMatchesRandomGeometricAtDerivedRadius(t *testing.T) {
	n, avg := 800, 9.0
	a := RGG(n, avg, 4)
	b := RandomGeometric(n, RadiusForAvgDegree(n, avg), 4)
	if a.M() != b.M() {
		t.Fatalf("RGG and RandomGeometric at derived radius differ: %d vs %d edges", a.M(), b.M())
	}
}

func TestBarabasiAlbertDeterministic(t *testing.T) {
	// Regression test: the target list used for preferential attachment
	// once depended on map iteration order, so two builds with the same
	// seed produced different graphs (and the bench counter-drift report
	// flagged phantom changes on every run).
	a := BarabasiAlbert(2000, 4, 3)
	b := BarabasiAlbert(2000, 4, 3)
	if a.M() != b.M() {
		t.Fatalf("edge counts differ: %d vs %d", a.M(), b.M())
	}
	for v := 0; v < a.N(); v++ {
		av, bv := a.Neighbors(v), b.Neighbors(v)
		if len(av) != len(bv) {
			t.Fatalf("node %d degree differs", v)
		}
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("node %d adjacency differs at position %d", v, i)
			}
		}
	}
}
