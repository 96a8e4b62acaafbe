// Package graph implements the static undirected graph substrate: adjacency
// lists, standard builders (grids, tori, k-augmented grids, classic
// families), breadth-first search, diameter, connectivity, and the degree
// statistics (δ-regularity) that Corollary 6 of the paper depends on.
package graph

import (
	"fmt"
	"sort"
)

// Graph is a simple undirected graph on vertices 0..n-1 with sorted
// adjacency lists. Build one with NewBuilder or a builder function.
type Graph struct {
	n   int
	adj [][]int32
	m   int // number of edges
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Neighbors returns the sorted adjacency list of v. The returned slice is
// shared with the graph and must not be modified.
func (g *Graph) Neighbors(v int) []int32 { return g.adj[v] }

// ForEachNeighbor calls fn for every neighbor of v in increasing order.
func (g *Graph) ForEachNeighbor(v int, fn func(u int)) {
	for _, u := range g.adj[v] {
		fn(int(u))
	}
}

// HasEdge reports whether {u, v} is an edge, via binary search.
func (g *Graph) HasEdge(u, v int) bool {
	if u == v {
		return false
	}
	a := g.adj[u]
	i := sort.Search(len(a), func(i int) bool { return a[i] >= int32(v) })
	return i < len(a) && a[i] == int32(v)
}

// Edges returns all edges as (u, v) pairs with u < v.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if int32(u) < v {
				out = append(out, [2]int{u, int(v)})
			}
		}
	}
	return out
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d)", g.n, g.m)
}

// Builder accumulates edges, deduplicates them, and produces a Graph.
type Builder struct {
	n     int
	edges map[int64]struct{}
}

// NewBuilder creates a builder for an n-vertex graph. It panics if n <= 0.
func NewBuilder(n int) *Builder {
	if n <= 0 {
		panic("graph: NewBuilder needs n > 0")
	}
	return &Builder{n: n, edges: make(map[int64]struct{})}
}

// key encodes an undirected pair with u < v.
func (b *Builder) key(u, v int) int64 {
	if u > v {
		u, v = v, u
	}
	return int64(u)*int64(b.n) + int64(v)
}

// AddEdge inserts the undirected edge {u, v}. Self-loops and duplicates are
// ignored; out-of-range vertices panic.
func (b *Builder) AddEdge(u, v int) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: AddEdge(%d, %d) out of range [0,%d)", u, v, b.n))
	}
	if u == v {
		return
	}
	b.edges[b.key(u, v)] = struct{}{}
}

// Build finalizes the builder into an immutable Graph.
func (b *Builder) Build() *Graph {
	g := &Graph{n: b.n, adj: make([][]int32, b.n), m: len(b.edges)}
	deg := make([]int, b.n)
	type pair struct{ u, v int }
	pairs := make([]pair, 0, len(b.edges))
	for k := range b.edges {
		u := int(k / int64(b.n))
		v := int(k % int64(b.n))
		pairs = append(pairs, pair{u, v})
		deg[u]++
		deg[v]++
	}
	for v := 0; v < b.n; v++ {
		g.adj[v] = make([]int32, 0, deg[v])
	}
	for _, p := range pairs {
		g.adj[p.u] = append(g.adj[p.u], int32(p.v))
		g.adj[p.v] = append(g.adj[p.v], int32(p.u))
	}
	for v := 0; v < b.n; v++ {
		sort.Slice(g.adj[v], func(i, j int) bool { return g.adj[v][i] < g.adj[v][j] })
	}
	return g
}
