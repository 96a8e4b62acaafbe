package main

import (
	"cmp"
	"errors"
	"runtime"
	"slices"

	"repro/internal/dyngraph"
)

// tracedGraph wraps a model for flood.Run. It times every call the
// engine makes into the model and replays each step's deltas into a
// shadow dyngraph.Adjacency, so adjacency maintenance gets a span of its
// own without buffering the delta stream. The time between the engine's
// calls into the model is the engine's own: a flood.engine span.
type tracedGraph struct {
	inner  dyngraph.Dynamic
	batch  dyngraph.Batcher
	lister dyngraph.NeighborLister
	deltas dyngraph.DeltaBatcher
	mover  dyngraph.MoveReporter // nil unless the model reports motion

	rec    *recorder
	layer  string // span prefix of the model's layer: "edgemeg" or "mobility"
	parent int    // the trial span
	op     int
	shadow *dyngraph.Adjacency

	seeded   bool
	steps    int // Step calls so far
	replayed int // Step calls whose deltas reached the shadow
	gap      int // open flood.engine span, -1 when none
	churn    int64
	moved    int64
	allocs   uint64 // heap allocations made inside the shadow's Apply calls
}

// tracedMover is tracedGraph for models that implement
// dyngraph.MoveReporter, so the wrapper offers flood.Run exactly the
// interfaces the model does.
type tracedMover struct{ *tracedGraph }

// MovedLastStep implements dyngraph.MoveReporter.
func (g tracedMover) MovedLastStep() int { return g.mover.MovedLastStep() }

// errUntraceable reports a model whose optional interfaces the wrapper
// cannot mirror exactly; wrapping it would change flood.Run's dispatch.
var errUntraceable = errors.New("tracing needs a model implementing Batcher, NeighborLister and DeltaBatcher, and not ArcBatcher")

// wrap returns d behind a tracedGraph whose spans are children of the
// span parent. The returned graph implements the same optional dyngraph
// interfaces as d.
func wrap(d dyngraph.Dynamic, rec *recorder, layer string, parent, op int, shadow *dyngraph.Adjacency) (dyngraph.Dynamic, *tracedGraph, error) {
	b, okB := d.(dyngraph.Batcher)
	l, okL := d.(dyngraph.NeighborLister)
	db, okD := d.(dyngraph.DeltaBatcher)
	if _, arcs := d.(dyngraph.ArcBatcher); arcs || !okB || !okL || !okD {
		return nil, nil, errUntraceable
	}
	g := &tracedGraph{inner: d, batch: b, lister: l, deltas: db, rec: rec, layer: layer,
		parent: parent, op: op, shadow: shadow, gap: -1}
	if mr, ok := d.(dyngraph.MoveReporter); ok {
		g.mover = mr
		return tracedMover{g}, g, nil
	}
	return g, g, nil
}

// N implements dyngraph.Dynamic.
func (g *tracedGraph) N() int { return g.inner.N() }

// ForEachNeighbor implements dyngraph.Dynamic.
func (g *tracedGraph) ForEachNeighbor(i int, fn func(j int)) { g.inner.ForEachNeighbor(i, fn) }

// AppendNeighbors implements dyngraph.NeighborLister.
func (g *tracedGraph) AppendNeighbors(i int, dst []int32) []int32 {
	return g.lister.AppendNeighbors(i, dst)
}

// AppendEdges implements dyngraph.Batcher. The first call is the
// snapshot the engine seeds its adjacency from; the shadow is seeded from
// the same batch.
func (g *tracedGraph) AppendEdges(dst []dyngraph.Edge) []dyngraph.Edge {
	g.closeGap()
	n0 := len(dst)
	id := g.rec.begin(g.layer+".snapshot", g.parent, g.op, g.steps)
	dst = g.batch.AppendEdges(dst)
	g.rec.end(id)
	if !g.seeded {
		g.seeded = true
		id = g.rec.begin("dyngraph.seed", g.parent, g.op, g.steps)
		g.shadow.Reset(g.inner.N())
		g.shadow.AddEdges(dst[n0:])
		g.rec.end(id)
	}
	g.openGap()
	return dst
}

// Step implements dyngraph.Dynamic.
func (g *tracedGraph) Step() {
	g.closeGap()
	id := g.rec.begin(g.layer+".step", g.parent, g.op, g.steps+1)
	g.inner.Step()
	g.rec.end(id)
	g.steps++
	g.openGap()
}

// AppendDeltas implements dyngraph.DeltaBatcher. The first call after
// each Step also replays the deltas into the shadow adjacency; the
// allocation count around that replay has a span of its own so that the
// trial's parts still add up to its wall time.
func (g *tracedGraph) AppendDeltas(born, died []dyngraph.Edge) ([]dyngraph.Edge, []dyngraph.Edge) {
	g.closeGap()
	nb, nd := len(born), len(died)
	id := g.rec.begin(g.layer+".deltas", g.parent, g.op, g.steps)
	born, died = g.deltas.AppendDeltas(born, died)
	g.rec.end(id)
	if g.replayed < g.steps {
		g.replayed = g.steps
		g.churn += int64(len(born) - nb + len(died) - nd)
		if g.mover != nil {
			g.moved += int64(g.mover.MovedLastStep())
		}
		var before, after runtime.MemStats
		id = g.rec.begin("trace.allocs", g.parent, g.op, g.steps)
		runtime.ReadMemStats(&before)
		g.rec.end(id)
		id = g.rec.begin("dyngraph.apply", g.parent, g.op, g.steps)
		g.shadow.Apply(born[nb:], died[nd:])
		g.rec.end(id)
		id = g.rec.begin("trace.allocs", g.parent, g.op, g.steps)
		runtime.ReadMemStats(&after)
		g.rec.end(id)
		g.allocs += after.Mallocs - before.Mallocs
	}
	g.openGap()
	return born, died
}

// openGap starts a flood.engine span: control is back in the engine.
func (g *tracedGraph) openGap() {
	g.gap = g.rec.begin("flood.engine", g.parent, g.op, g.steps)
}

// closeGap ends the open flood.engine span, if any; finish calls it once
// flood.Run has returned.
func (g *tracedGraph) closeGap() {
	g.rec.end(g.gap)
	g.gap = -1
}

// shadowMatches reports whether the shadow adjacency holds exactly the
// model's current snapshot.
func (g *tracedGraph) shadowMatches() bool {
	want := sortedEdges(g.batch.AppendEdges(nil))
	got := sortedEdges(g.shadow.AppendEdges(nil))
	return slices.Equal(want, got)
}

func sortedEdges(es []dyngraph.Edge) []dyngraph.Edge {
	slices.SortFunc(es, func(a, b dyngraph.Edge) int {
		return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
	})
	return es
}
