package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Graph is an immutable undirected simple graph in CSR form.
type Graph struct {
	offsets []int32 // len = n+1
	adj     []int32 // concatenated sorted adjacency lists
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.offsets) - 1 }

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.adj) / 2 }

// Degree returns the degree of node v.
func (g *Graph) Degree(v int) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted adjacency list of v. The returned slice
// aliases the graph's storage and must not be modified.
func (g *Graph) Neighbors(v int) []int32 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether {u, v} is an edge. It runs in O(log deg(u)).
func (g *Graph) HasEdge(u, v int) bool {
	nb := g.Neighbors(u)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= int32(v) })
	return i < len(nb) && nb[i] == int32(v)
}

// MaxDegree returns the maximum degree, or 0 for the empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// AvgDegree returns the average degree, or 0 for the empty graph.
func (g *Graph) AvgDegree() float64 {
	if g.N() == 0 {
		return 0
	}
	return 2 * float64(g.M()) / float64(g.N())
}

// Builder accumulates edges and produces a Graph. Duplicate edges and
// self-loops are discarded. The zero value is not usable; call NewBuilder.
type Builder struct {
	n     int
	edges []edge
}

type edge struct{ u, v int32 }

// NewBuilder returns a builder for a graph on n nodes.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Builder{n: n}
}

// AddEdge records the undirected edge {u, v}. Self-loops are ignored.
// It panics if an endpoint is out of range.
func (b *Builder) AddEdge(u, v int) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: edge endpoint out of range: (%d,%d) with n=%d", u, v, b.n))
	}
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, edge{int32(u), int32(v)})
}

// Build finalizes the graph. The builder may be reused afterward (its edge
// set is retained).
func (b *Builder) Build() *Graph {
	// Endpoints are non-negative int32s, so the packed key orders edges
	// by (u, v) in one comparison.
	slices.SortFunc(b.edges, func(x, y edge) int {
		return cmp.Compare(uint64(x.u)<<32|uint64(x.v), uint64(y.u)<<32|uint64(y.v))
	})
	b.edges = slices.Compact(b.edges)

	deg := make([]int32, b.n)
	for _, e := range b.edges {
		deg[e.u]++
		deg[e.v]++
	}
	offsets := make([]int32, b.n+1)
	for v := 0; v < b.n; v++ {
		offsets[v+1] = offsets[v] + deg[v]
	}
	adj := make([]int32, 2*len(b.edges))
	cursor := make([]int32, b.n)
	copy(cursor, offsets[:b.n])
	for _, e := range b.edges {
		adj[cursor[e.u]] = e.v
		cursor[e.u]++
		adj[cursor[e.v]] = e.u
		cursor[e.v]++
	}
	// Every row comes out sorted: in (u, v) order, the edges that give x a
	// smaller neighbour (u, x) all precede those that give it a larger one
	// (x, v), and each group arrives ascending.
	return &Graph{offsets: offsets, adj: adj}
}

// FromCSR wraps prebuilt CSR arrays as a Graph without copying or
// validating: offsets must have length n+1 with offsets[0] == 0, rows
// must be sorted ascending with no self-loops or duplicates, and the
// arc list must be symmetric (so M() == len(adj)/2 holds). The slices
// are aliased — the caller must not mutate them while the graph is in
// use. This is the zero-allocation constructor for callers that already
// maintain CSR invariants themselves (the dynamic repair scratch).
func FromCSR(offsets, adj []int32) *Graph {
	return &Graph{offsets: offsets, adj: adj}
}

// FromEdges builds a graph on n nodes from an explicit edge list.
func FromEdges(n int, edges [][2]int) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// Subgraph is a graph induced on a subset of another graph's nodes,
// together with the mapping back to the parent graph's node indices.
type Subgraph struct {
	*Graph
	// Orig maps the subgraph's node index to the parent node index.
	Orig []int32
}

// InducedSubgraph extracts the subgraph induced by the given nodes of g.
// keep lists parent node indices: local node i is keep[i] (Orig[i] ==
// keep[i]), and every row of the result is sorted. It panics if keep
// holds a duplicate or an index outside [0, g.N()).
//
// It runs in O(g.N() + Σ_{v∈keep} deg(v)) time: a dense parent→local
// index of length g.N() translates neighbours, one pass over the kept
// rows counts their kept neighbours into the CSR offsets, and a second
// writes them into an exact-size adjacency array. An ascending keep (the
// residual sets every caller passes) relabels monotonically, so its rows
// come out sorted as written; any other order sorts each row.
func InducedSubgraph(g *Graph, keep []int) *Subgraph {
	local := make([]int32, g.N())
	for i := range local {
		local[i] = -1
	}
	orig := make([]int32, len(keep))
	ascending := true
	for i, v := range keep {
		if v < 0 || v >= len(local) {
			panic(fmt.Sprintf("graph: node %d out of range in InducedSubgraph with n=%d", v, len(local)))
		}
		if local[v] >= 0 {
			panic(fmt.Sprintf("graph: duplicate node %d in InducedSubgraph", v))
		}
		local[v] = int32(i)
		orig[i] = int32(v)
		ascending = ascending && (i == 0 || keep[i-1] < v)
	}
	offsets := make([]int32, len(keep)+1)
	for i, v := range keep {
		d := int32(0)
		for _, u := range g.Neighbors(v) {
			if local[u] >= 0 {
				d++
			}
		}
		offsets[i+1] = offsets[i] + d
	}
	adj := make([]int32, offsets[len(keep)])
	for i, v := range keep {
		k := offsets[i]
		for _, u := range g.Neighbors(v) {
			if j := local[u]; j >= 0 {
				adj[k] = j
				k++
			}
		}
		if !ascending {
			slices.Sort(adj[offsets[i]:k])
		}
	}
	return &Subgraph{Graph: &Graph{offsets: offsets, adj: adj}, Orig: orig}
}

// Components returns the connected components of g, each as a slice of node
// indices in increasing order. Components are ordered by smallest member.
func Components(g *Graph) [][]int {
	n := g.N()
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var comps [][]int
	queue := make([]int32, 0, 64)
	for s := 0; s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		id := int32(len(comps))
		comp[s] = id
		queue = append(queue[:0], int32(s))
		members := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range g.Neighbors(int(v)) {
				if comp[u] < 0 {
					comp[u] = id
					queue = append(queue, u)
					members = append(members, int(u))
				}
			}
		}
		sort.Ints(members)
		comps = append(comps, members)
	}
	return comps
}

// BFS computes hop distances from src. Unreachable nodes get -1.
func BFS(g *Graph, src int) []int32 {
	dist := make([]int32, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int32{int32(src)}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(int(v)) {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// Eccentricity returns the maximum finite BFS distance from src.
func Eccentricity(g *Graph, src int) int {
	max := int32(0)
	for _, d := range BFS(g, src) {
		if d > max {
			max = d
		}
	}
	return int(max)
}

// DiameterLowerBound estimates the diameter of the component containing
// node 0 by a double-sweep BFS (exact on trees, a lower bound in general).
// It returns 0 for the empty graph.
func DiameterLowerBound(g *Graph) int {
	if g.N() == 0 {
		return 0
	}
	d0 := BFS(g, 0)
	far, fd := 0, int32(0)
	for v, d := range d0 {
		if d > fd {
			far, fd = v, d
		}
	}
	return Eccentricity(g, far)
}

// DegreeHistogram returns counts indexed by degree, length MaxDegree()+1.
func DegreeHistogram(g *Graph) []int {
	h := make([]int, g.MaxDegree()+1)
	for v := 0; v < g.N(); v++ {
		h[g.Degree(v)]++
	}
	return h
}

// Validate checks internal invariants (sorted adjacency, symmetry, no
// loops) and returns an error describing the first violation.
func (g *Graph) Validate() error {
	for v := 0; v < g.N(); v++ {
		nb := g.Neighbors(v)
		for i, u := range nb {
			if int(u) == v {
				return fmt.Errorf("self-loop at %d", v)
			}
			if u < 0 || int(u) >= g.N() {
				return fmt.Errorf("neighbor %d of %d out of range", u, v)
			}
			if i > 0 && nb[i-1] >= u {
				return fmt.Errorf("adjacency of %d not strictly sorted", v)
			}
			if !g.HasEdge(int(u), v) {
				return fmt.Errorf("edge (%d,%d) not symmetric", v, u)
			}
		}
	}
	return nil
}
