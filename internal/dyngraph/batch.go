package dyngraph

// Batcher is an optional extension of Dynamic that exposes the current
// snapshot as a flat edge batch. Implementations append every undirected
// edge {u, v} exactly once, normalized to U < V, in an unspecified but
// deterministic order; the result must be consistent with ForEachNeighbor.
//
// Batch access is how the delta engines seed their adjacency and how the
// Deltifier captures snapshots: a flat []Edge read replaces two closure
// invocations per edge, and models whose internal state already is
// edge-shaped (the sparse edge-MEG alive list, recorded traces, static
// graphs, geometry cell lists) produce it without materializing adjacency
// lists at all. Models that cannot produce batches cheaply simply do not
// implement the interface; the package-level AppendEdges falls back to
// ForEachNeighbor for them.
type Batcher interface {
	// AppendEdges appends the current snapshot's edges to dst and returns
	// the extended slice. Implementations must not retain dst.
	AppendEdges(dst []Edge) []Edge
}

// ArcBatcher is the directed counterpart of Batcher: an optional extension
// of Dynamic exposing the current snapshot as a flat batch of directed arcs
// U → V, meaning "U transmits to V". It exists for virtual graphs whose
// adjacency is asymmetric — the push-gossip subsampled graph, where node i
// keeping j does not imply j keeps i — which can therefore never satisfy
// the undirected Batcher contract. Consumers (the flooding arc-scan
// engine) must propagate information only from U to V, never backwards.
//
// A model implements at most one of Batcher and ArcBatcher.
type ArcBatcher interface {
	// AppendArcs appends every directed arc of the current snapshot to dst
	// exactly once and returns the extended slice, reusing Edge with U as
	// the tail and V as the head. Order is unspecified but deterministic;
	// implementations must not retain dst.
	AppendArcs(dst []Edge) []Edge
}

// NeighborLister is an optional extension of Dynamic that exposes one
// node's current neighbors as a slice batch, the per-node counterpart of
// Batcher. It serves consumers that touch few nodes per step (random
// walkers, push-gossip subsampling) where materializing the whole snapshot
// would be wasteful.
type NeighborLister interface {
	// AppendNeighbors appends the current neighbors of node i to dst and
	// returns the extended slice. Implementations must not retain dst, and
	// must report neighbors in the same order as ForEachNeighbor.
	AppendNeighbors(i int, dst []int32) []int32
}

// AppendEdges appends the current snapshot's edges of d to dst, using the
// model's native Batcher implementation when available and an adapter over
// ForEachNeighbor otherwise. The fallback assumes the model reports
// symmetric adjacency (both directions of every edge) and keeps the i < j
// half.
func AppendEdges(d Dynamic, dst []Edge) []Edge {
	if b, ok := d.(Batcher); ok {
		return b.AppendEdges(dst)
	}
	return appendEdgesViaCallback(d, dst)
}

// appendEdgesViaCallback adapts ForEachNeighbor. It lives outside
// AppendEdges so that the closure capturing dst — which costs a heap cell
// per call, even on paths that never reach it — is only materialized on
// the callback path, keeping the Batcher path allocation-free for the
// engine hot loops that seed scratch state through this helper.
func appendEdgesViaCallback(d Dynamic, dst []Edge) []Edge {
	n := d.N()
	for i := 0; i < n; i++ {
		d.ForEachNeighbor(i, func(j int) {
			if i < j {
				dst = append(dst, Edge{int32(i), int32(j)})
			}
		})
	}
	return dst
}

// AppendNeighbors appends the current neighbors of node i in d to dst,
// using the model's native NeighborLister implementation when available
// and an adapter over ForEachNeighbor otherwise. The lister path does not
// allocate, so per-node hot loops (pull, push–pull, Subsample, Deltifier)
// call it directly.
func AppendNeighbors(d Dynamic, i int, dst []int32) []int32 {
	if l, ok := d.(NeighborLister); ok {
		return l.AppendNeighbors(i, dst)
	}
	return appendNeighborsViaCallback(d, i, dst)
}

// appendNeighborsViaCallback adapts ForEachNeighbor, split out of
// AppendNeighbors for the same reason as appendEdgesViaCallback.
func appendNeighborsViaCallback(d Dynamic, i int, dst []int32) []int32 {
	d.ForEachNeighbor(i, func(j int) {
		dst = append(dst, int32(j))
	})
	return dst
}
