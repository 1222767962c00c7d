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
//
// When keep is exactly 0..g.N()-1, the result shares g's arrays instead
// of copying them (only Orig is new), in O(g.N()) time. Graphs are
// immutable, so the share is safe; a FromCSR graph's aliasing contract
// then extends to the result.
func InducedSubgraph(g *Graph, keep []int) *Subgraph {
	if isIota(keep, g.N()) {
		orig := make([]int32, len(keep))
		for i := range orig {
			orig[i] = int32(i)
		}
		return &Subgraph{Graph: g, Orig: orig}
	}
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

// isIota reports whether keep is exactly 0..n-1.
func isIota(keep []int, n int) bool {
	if len(keep) != n {
		return false
	}
	for i, v := range keep {
		if v != i {
			return false
		}
	}
	return true
}

// Components holds the connected components of a graph in flat form:
// component c is Nodes[Offs[c]:Offs[c+1]]. Components come in order of
// their smallest member, and each component's nodes are ascending, so
// the ordinals depend only on the graph. The zero value holds no
// components; Find fills it, and a refill reuses its storage.
type Components struct {
	Offs  []int32 // Len()+1 entries
	Nodes []int32 // every node exactly once
	label []int32 // node -> component ordinal; Find's scratch
}

// Find replaces c's contents with the connected components of g in
// O(n + m) time, allocating only when g has more nodes than any graph c
// held before. A breadth-first search from each unlabelled node, taken in
// ascending order, labels one component (Nodes doubles as its queue); a
// counting pass over the nodes in ascending order then fills each
// component's range.
func (c *Components) Find(g *Graph) {
	n := g.N()
	c.label = slices.Grow(c.label[:0], n)[:n]
	c.Nodes = slices.Grow(c.Nodes[:0], n)[:n]
	c.Offs = slices.Grow(c.Offs[:0], n+1)
	for v := range c.label {
		c.label[v] = -1
	}
	tail := int32(0)
	for s := 0; s < n; s++ {
		if c.label[s] >= 0 {
			continue
		}
		k := int32(len(c.Offs))
		c.Offs = append(c.Offs, tail)
		c.label[s] = k
		c.Nodes[tail] = int32(s)
		tail++
		for head := c.Offs[k]; head < tail; head++ {
			for _, u := range g.Neighbors(int(c.Nodes[head])) {
				if c.label[u] < 0 {
					c.label[u] = k
					c.Nodes[tail] = u
					tail++
				}
			}
		}
	}
	// Shifted by one, Offs[k+1] is component k's fill cursor; it ends at
	// the start of component k+1. Offs[0] is 0 either way.
	c.Offs = append(c.Offs, 0)
	copy(c.Offs[1:], c.Offs)
	for v, k := range c.label {
		c.Nodes[c.Offs[k+1]] = int32(v)
		c.Offs[k+1]++
	}
}

// Len returns the number of components.
func (c *Components) Len() int { return max(len(c.Offs)-1, 0) }

// Comp returns component i's nodes, ascending. The slice aliases c's
// storage and is valid until the next Find.
func (c *Components) Comp(i int) []int32 { return c.Nodes[c.Offs[i]:c.Offs[i+1]] }

// MaxSize returns the size of the largest component, or 0 when there is
// none.
func (c *Components) MaxSize() int {
	size := 0
	for i := 0; i < c.Len(); i++ {
		size = max(size, int(c.Offs[i+1]-c.Offs[i]))
	}
	return size
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
