// Package dyngraph defines the discrete-time dynamic graph abstraction that
// every model in this repository implements (edge-MEGs, node-MEGs, mobility
// models, random-path models) and that the flooding engine consumes. It also
// provides snapshot adapters, trace recording and replay, and the virtual
// subsampled graph used to reduce randomized gossip to flooding (Section 5
// of the paper).
package dyngraph

import "repro/internal/graph"

// Dynamic is a discrete-time dynamic graph G([n], {E_t}) on the vertex set
// {0, ..., n-1}. At any moment the object exposes the current snapshot E_t;
// Step advances the process to E_{t+1}.
//
// Implementations are deterministic given their seed, and are not safe for
// concurrent use: parallel experiments construct one instance per worker.
type Dynamic interface {
	// N returns the number of nodes.
	N() int
	// Step advances the process one time unit.
	Step()
	// ForEachNeighbor calls fn for every node j adjacent to i in the
	// current snapshot. Order is unspecified; fn must not mutate the graph.
	ForEachNeighbor(i int, fn func(j int))
}

// Static adapts a fixed graph.Graph as a Dynamic whose snapshot never
// changes. It is the degenerate baseline in experiments (a dynamic graph
// with mixing time 0) and a convenience in tests.
type Static struct {
	g *graph.Graph
}

// NewStatic wraps g.
func NewStatic(g *graph.Graph) *Static { return &Static{g: g} }

// N implements Dynamic.
func (s *Static) N() int { return s.g.N() }

// Step implements Dynamic; the snapshot is constant.
func (s *Static) Step() {}

// ForEachNeighbor implements Dynamic.
func (s *Static) ForEachNeighbor(i int, fn func(j int)) {
	s.g.ForEachNeighbor(i, fn)
}

// AppendEdges implements Batcher.
func (s *Static) AppendEdges(dst []Edge) []Edge {
	n := s.g.N()
	for i := 0; i < n; i++ {
		for _, j := range s.g.Neighbors(i) {
			if int32(i) < j {
				dst = append(dst, Edge{int32(i), j})
			}
		}
	}
	return dst
}

// AppendNeighbors implements NeighborLister.
func (s *Static) AppendNeighbors(i int, dst []int32) []int32 {
	return append(dst, s.g.Neighbors(i)...)
}

// AppendDeltas implements DeltaBatcher: a static snapshot never churns, so
// delta consumers pay exactly nothing per step — the degenerate best case
// of the incremental dynamics API.
func (s *Static) AppendDeltas(born, died []Edge) (b, d []Edge) {
	return born, died
}

// Snapshot materializes the current snapshot of d as a static graph. It
// costs O(n + m) and is used by observers and stationarity estimators.
func Snapshot(d Dynamic) *graph.Graph {
	b := graph.NewBuilder(d.N())
	for _, e := range AppendEdges(d, nil) {
		b.AddEdge(int(e.U), int(e.V))
	}
	return b.Build()
}

// EdgeCount returns the number of edges in the current snapshot.
func EdgeCount(d Dynamic) int {
	if b, ok := d.(Batcher); ok {
		return len(b.AppendEdges(nil))
	}
	total := 0
	for i := 0; i < d.N(); i++ {
		d.ForEachNeighbor(i, func(j int) { total++ })
	}
	return total / 2 // each undirected edge reported from both endpoints
}

// AverageDegreeOver advances d by steps and returns the average per-node
// degree across all visited snapshots (including the initial one).
func AverageDegreeOver(d Dynamic, steps int) float64 {
	total := 0
	for t := 0; t <= steps; t++ {
		total += 2 * EdgeCount(d)
		if t < steps {
			d.Step()
		}
	}
	return float64(total) / float64(d.N()*(steps+1))
}
