package dyngraph

import "slices"

// DeltaBatcher is the incremental sibling of Batcher: an optional extension
// of Dynamic exposing the edge churn of the most recent Step as two flat
// batches instead of forcing consumers to rescan the whole snapshot. In the
// sparse regimes the paper cares about (p = c/n, stationary degree O(1))
// the expected churn p·(missing) + q·(present) is O(n) per step while the
// snapshot itself has Θ(n) edges that mostly do not change — and the
// edge-MEG Markov steps already know exactly which pairs flipped, so the
// deltas come out of the simulator for free.
//
// Consumers seed their view from a full snapshot (AppendEdges) once, then
// after every Step apply the deltas to a persistent Adjacency, maintaining
// the current graph in O(churn) per step instead of O(m).
type DeltaBatcher interface {
	// AppendDeltas appends the edges born (absent before the most recent
	// Step, present after) to born and the edges that died (present before,
	// absent after) to died, returning the extended slices. Before the
	// first Step both batches are empty. Each edge appears at most once,
	// normalized to U < V; born and died are disjoint; applying them to the
	// pre-Step snapshot yields exactly the current snapshot. Order is
	// unspecified but deterministic. Implementations must not retain the
	// slices, and calls between two Steps are idempotent.
	AppendDeltas(born, died []Edge) (b, d []Edge)
}

// MoveReporter is an optional extension of DeltaBatcher for models whose
// churn follows node motion (mobility positions, node-MEG states): it
// reports how many nodes changed position or state in the most recent
// Step — the k in the O(k × local density) incremental step cost, and the
// numerator of the moved_per_step telemetry gauge. Before the first Step
// it reports 0.
type MoveReporter interface {
	MovedLastStep() int
}

// Adjacency is a persistent neighbor store that consumers of DeltaBatcher
// maintain across steps: per-node neighbor lists over a fixed universe,
// built once from a snapshot batch and then updated in place from delta
// batches — O(degree) per changed edge, so a step costs O(churn) instead
// of the O(m) full rebuild a snapshot view pays. Reset reuses all backing
// arrays, which is what lets flood.Scratch amortize the store across the
// trials of a sweep.
//
// The store is a CSR-style arena: every node's list lives in one shared
// []int32 backing array, addressed by a 12-byte {offset, length,
// capacity} segment header instead of a 24-byte slice header over its
// own allocation. At n = 10^6 that halves the fixed per-node overhead
// and, more importantly, collapses a million tiny heap objects into two
// arrays the GC never walks. Lists keep per-node capacity slack; a list
// outgrowing its segment relocates to the arena tail (amortized O(1),
// the old segment becomes a hole), and when the arena runs out the live
// segments are compacted into a spare buffer — so growth never moves
// more than the arena once per doubling.
//
// Neighbor order within a list is unspecified (removals swap with the
// last entry), so Adjacency serves order-insensitive consumers — the
// flooding and parsimonious engines, which treat neighborhoods as sets.
// Engines whose random draws index into neighbor lists (pull, push–pull,
// random walks) must keep reading the model's own neighbor view, whose
// order is pinned by the fixed-seed equivalence tests.
type Adjacency struct {
	segs  []segment
	arena []int32
	spare []int32 // compaction target, swapped with arena; len 0 between uses
	holes int     // arena slots abandoned by relocated segments
	n     int
}

// segment is one node's list header: arena[off:off+len] is the list,
// arena[off:off+cap] the slots reserved for it.
type segment struct {
	off, len, cap int32
}

// Reset re-sizes the store for a universe of n nodes and empties every
// list. At an unchanged n the arena layout — every node's learned
// capacity — is kept, so a store reused across the trials of a sweep
// (flood.Scratch) re-seeds into slots it already owns and warm trials
// never relocate a segment.
func (a *Adjacency) Reset(n int) {
	if n == a.n && len(a.segs) == n {
		for i := range a.segs {
			a.segs[i].len = 0
		}
		return
	}
	if cap(a.segs) < n {
		a.segs = make([]segment, n)
	} else {
		a.segs = a.segs[:n]
		clear(a.segs)
	}
	a.arena = a.arena[:0]
	a.holes = 0
	a.n = n
}

// Bytes returns the heap bytes retained by the store: the segment
// headers plus both arena buffers. Unlike the per-node-slice store this
// replaces, the accounting is O(1) — three capacities, no walk.
func (a *Adjacency) Bytes() int64 {
	return int64(cap(a.segs))*12 + int64(cap(a.arena))*4 + int64(cap(a.spare))*4
}

// Degree returns the current degree of node i.
func (a *Adjacency) Degree(i int) int { return int(a.segs[i].len) }

// Neighbors returns node i's current neighbor list. The slice aliases the
// arena and is invalidated by the next Add/Remove/Apply/Reset; callers
// must not mutate it.
func (a *Adjacency) Neighbors(i int) []int32 {
	s := a.segs[i]
	return a.arena[s.off : s.off+s.len : s.off+s.cap]
}

// AddEdge inserts the undirected edge {u, v}, which must not be present.
func (a *Adjacency) AddEdge(u, v int32) {
	a.appendTo(u, v)
	a.appendTo(v, u)
}

// appendTo appends w to node u's list, relocating the segment to the
// arena tail when its slack is exhausted.
func (a *Adjacency) appendTo(u, w int32) {
	s := &a.segs[u]
	if s.len == s.cap {
		a.growSeg(u)
		s = &a.segs[u]
	}
	a.arena[s.off+s.len] = w
	s.len++
}

// growSeg moves node u's segment to the arena tail with doubled capacity.
// The vacated slots become a hole; holes are reclaimed wholesale by the
// next compaction.
func (a *Adjacency) growSeg(u int32) {
	s := a.segs[u]
	newCap := s.cap * 2
	if newCap < 2 {
		newCap = 2
	}
	if len(a.arena)+int(newCap) > cap(a.arena) {
		a.ensure(int(newCap))
		s = a.segs[u] // compaction moves offsets
	}
	off := int32(len(a.arena))
	a.arena = a.arena[:len(a.arena)+int(newCap)]
	copy(a.arena[off:off+s.len], a.arena[s.off:s.off+s.len])
	a.holes += int(s.cap)
	a.segs[u] = segment{off: off, len: s.len, cap: newCap}
}

// ensure makes room for need more arena slots: live segments are
// compacted (capacities preserved) into the spare buffer, which is grown
// geometrically only when squeezing the holes out is not enough. The two
// buffers swap roles, so a store at its high-water size compacts with no
// allocation — the delta engines' zero-alloc warm-path contract.
func (a *Adjacency) ensure(need int) {
	live := len(a.arena) - a.holes
	target := cap(a.arena)
	if live+need > target {
		target = 2 * target
		if live+need > target {
			target = live + need
		}
	}
	if target > maxArena {
		panic("dyngraph: Adjacency arena exceeds int32 offsets")
	}
	if cap(a.spare) < target {
		a.spare = make([]int32, 0, target)
	}
	dst := a.spare[:0]
	for i := range a.segs {
		s := &a.segs[i]
		off := int32(len(dst))
		dst = append(dst, a.arena[s.off:s.off+s.len]...)
		dst = dst[:int(off)+int(s.cap)]
		s.off = off
	}
	a.spare = a.arena[:0]
	a.arena = dst
	a.holes = 0
}

// maxArena bounds the arena length addressable by int32 segment offsets.
const maxArena = 1<<31 - 1

// RemoveEdge deletes the undirected edge {u, v}, which must be present.
// The removal swaps with the last entry, perturbing neighbor order.
func (a *Adjacency) RemoveEdge(u, v int32) {
	a.removeFrom(u, v)
	a.removeFrom(v, u)
}

func (a *Adjacency) removeFrom(u, v int32) {
	s := &a.segs[u]
	l := a.arena[s.off : s.off+s.len]
	for i, w := range l {
		if w == v {
			s.len--
			l[i] = l[s.len]
			return
		}
	}
	panic("dyngraph: Adjacency.RemoveEdge of an absent edge")
}

// AddEdges inserts every edge of the batch — the seeding pass that turns a
// fresh (or Reset) store into the current snapshot.
func (a *Adjacency) AddEdges(edges []Edge) {
	for _, e := range edges {
		a.AddEdge(e.U, e.V)
	}
}

// Apply updates the store by one step of churn: every died edge is removed
// and every born edge inserted. Batches must be consistent with the stored
// graph (deltas from the model whose snapshot seeded the store).
func (a *Adjacency) Apply(born, died []Edge) {
	for _, e := range died {
		a.RemoveEdge(e.U, e.V)
	}
	for _, e := range born {
		a.AddEdge(e.U, e.V)
	}
}

// AppendEdges appends the stored graph's edges to dst, each once with
// U < V, in an unspecified deterministic order. It exists so tests can
// compare a delta-maintained store against a fresh snapshot batch.
func (a *Adjacency) AppendEdges(dst []Edge) []Edge {
	for u := range a.segs {
		s := a.segs[u]
		for _, v := range a.arena[s.off : s.off+s.len] {
			if int32(u) < v {
				dst = append(dst, Edge{U: int32(u), V: v})
			}
		}
	}
	return dst
}

// compareEdges orders edges lexicographically by (U, V).
func compareEdges(a, b Edge) int {
	if a.U != b.U {
		return int(a.U) - int(b.U)
	}
	return int(a.V) - int(b.V)
}

// diffSortedEdges merges two (U, V)-sorted edge batches, appending edges
// only in cur to born and edges only in prev to died.
func diffSortedEdges(prev, cur, born, died []Edge) (b, d []Edge) {
	i, j := 0, 0
	for i < len(prev) && j < len(cur) {
		switch c := compareEdges(prev[i], cur[j]); {
		case c == 0:
			i++
			j++
		case c < 0:
			died = append(died, prev[i])
			i++
		default:
			born = append(born, cur[j])
			j++
		}
	}
	born = append(born, cur[j:]...)
	died = append(died, prev[i:]...)
	return born, died
}

// Deltifier adapts any Dynamic into a DeltaBatcher by diffing consecutive
// snapshot batches. It is the spreading engines' entry adapter: every
// registered model streams its churn natively, and flood.Run, Async and
// Parsimonious hand any other undirected Dynamic (test doubles, models
// hidden behind a narrower interface) to a scratch-held Deltifier. The
// diff sorts and merges two full snapshots, so Step costs O(m log m): the
// adapter buys the delta API and O(churn) downstream consumption, not a
// cheaper model step. Models with edge-shaped state should implement
// DeltaBatcher natively instead.
//
// The wrapper owns the clock: callers must Step the Deltifier, never the
// wrapped model directly. Snapshot reads (ForEachNeighbor, batch and
// per-node views) are forwarded unchanged.
type Deltifier struct {
	d         Dynamic
	prev, cur []Edge  // (U, V)-sorted snapshots before and after the last Step
	nbrs      []int32 // per-node buffer for snapshots of models without Batcher
	stepped   bool
}

// NewDeltifier wraps d, capturing its current snapshot as the base the
// first Step's deltas are computed against. It panics on an ArcBatcher
// (see Reset).
func NewDeltifier(d Dynamic) *Deltifier {
	df := &Deltifier{}
	df.Reset(d)
	return df
}

// Reset re-targets df at d, reusing every buffer — the scratch-reuse entry
// point that lets one Deltifier serve every trial of a sweep without
// allocating once warm. It panics if d is an ArcBatcher: a directed
// virtual graph has no undirected snapshot, and symmetrising it would
// silently propagate against its arcs (a programming error in the caller).
func (df *Deltifier) Reset(d Dynamic) {
	if _, ok := d.(ArcBatcher); ok {
		panic("dyngraph: Deltifier cannot wrap a directed ArcBatcher")
	}
	df.d = d
	df.stepped = false
	df.cur = df.snapshot(df.cur[:0])
}

// snapshot appends the wrapped model's current edges to dst, sorted by
// (U, V). Models without Batcher are read node by node through the held
// neighbor buffer, so a lister-only model is captured without allocating.
func (df *Deltifier) snapshot(dst []Edge) []Edge {
	if b, ok := df.d.(Batcher); ok {
		dst = b.AppendEdges(dst)
	} else {
		n := df.d.N()
		for i := 0; i < n; i++ {
			df.nbrs = AppendNeighbors(df.d, i, df.nbrs[:0])
			for _, j := range df.nbrs {
				if int32(i) < j {
					dst = append(dst, Edge{int32(i), j})
				}
			}
		}
	}
	return sortEdges(dst)
}

func sortEdges(edges []Edge) []Edge {
	slices.SortFunc(edges, compareEdges)
	return edges
}

// Bytes returns the heap bytes retained by the adapter's buffers.
func (df *Deltifier) Bytes() int64 {
	return int64(cap(df.prev)+cap(df.cur))*8 + int64(cap(df.nbrs))*4
}

// N implements Dynamic.
func (df *Deltifier) N() int { return df.d.N() }

// Step implements Dynamic: the wrapped model advances, and the sorted
// snapshots before and after are retained for AppendDeltas.
func (df *Deltifier) Step() {
	df.d.Step()
	df.prev, df.cur = df.cur, df.snapshot(df.prev[:0])
	df.stepped = true
}

// ForEachNeighbor implements Dynamic.
func (df *Deltifier) ForEachNeighbor(i int, fn func(j int)) {
	df.d.ForEachNeighbor(i, fn)
}

// AppendEdges implements Batcher, serving the retained sorted snapshot.
func (df *Deltifier) AppendEdges(dst []Edge) []Edge {
	return append(dst, df.cur...)
}

// AppendNeighbors implements NeighborLister, forwarding to the wrapped
// model.
func (df *Deltifier) AppendNeighbors(i int, dst []int32) []int32 {
	return AppendNeighbors(df.d, i, dst)
}

// AppendDeltas implements DeltaBatcher by merging the retained snapshots.
func (df *Deltifier) AppendDeltas(born, died []Edge) (b, d []Edge) {
	if !df.stepped {
		return born, died
	}
	return diffSortedEdges(df.prev, df.cur, born, died)
}
