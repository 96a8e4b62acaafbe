package dyngraph

import "repro/internal/rng"

// Subsample wraps a Dynamic so that each node exposes only a uniformly
// random subset of at most K of its current neighbors. This is exactly the
// reduction sketched in the paper's conclusions: "a randomized protocol in
// which, at every step, a node that possesses the information transmits it
// to a randomly chosen subset of neighbors ... can be reduced to the
// analysis of flooding in a 'virtual' dynamic graph in which a subset of the
// edges are removed."
//
// The subset is resampled on every Step, and within one snapshot it is
// stable per node. Each node's subset is drawn from its own (node, epoch)
// stream derived from a base seed fixed at construction, so the sampled
// virtual graph is a pure function of (inner graph, base seed, time) —
// independent of which nodes are queried, in what order, or how often.
// That query-order independence is what lets the whole-snapshot arc batch
// (AppendArcs) and lazy per-node queries (AppendNeighbors) expose the very
// same virtual graph, so the flooding arc scan and any per-node consumer see
// identical subsets. Note that subsampling is directional: i keeping j does
// not imply j keeps i, matching push-style gossip.
type Subsample struct {
	inner Dynamic
	k     int
	base  uint64 // seed of the per-(node, epoch) sampling streams
	epoch uint64
	// Per-node cache of the sampled neighbor subset, keyed by epoch.
	cacheEpoch []uint64
	cache      [][]int32
	scratch    []int32 // inner-neighbor buffer
	idx        []int   // SampleDistinctInto buffer
	local      rng.RNG // reseeded per (node, epoch) draw
}

// Bytes returns the heap bytes retained by the wrapper's caches and
// buffers — a telemetry accessor, not a hot-path call.
func (s *Subsample) Bytes() int64 {
	b := int64(cap(s.cacheEpoch))*8 + int64(cap(s.cache))*24 +
		int64(cap(s.scratch))*4 + int64(cap(s.idx))*8
	for _, l := range s.cache[:cap(s.cache)] {
		b += int64(cap(l)) * 4
	}
	return b
}

// NewSubsample wraps inner so each node forwards to at most k random
// neighbors per step, consuming one draw from r as the base seed of the
// per-(node, epoch) sampling streams. It panics if k <= 0.
func NewSubsample(inner Dynamic, k int, r *rng.RNG) *Subsample {
	s := &Subsample{}
	s.Reset(inner, k, r)
	return s
}

// Reset re-targets s at a (possibly different) inner graph with a fresh
// base seed drawn from r, reusing the per-node caches whenever the node
// count allows — the scratch-reuse entry point that lets one Subsample
// serve every trial of a sweep without reallocating. It panics if k <= 0.
func (s *Subsample) Reset(inner Dynamic, k int, r *rng.RNG) {
	if k <= 0 {
		panic("dyngraph: NewSubsample needs k > 0")
	}
	n := inner.N()
	s.inner = inner
	s.k = k
	s.base = r.Uint64()
	s.epoch = 1
	if cap(s.cacheEpoch) < n {
		s.cacheEpoch = make([]uint64, n)
		s.cache = make([][]int32, n)
	} else {
		s.cacheEpoch = s.cacheEpoch[:n]
		clear(s.cacheEpoch)
		s.cache = s.cache[:n]
	}
}

// N implements Dynamic.
func (s *Subsample) N() int { return s.inner.N() }

// Step implements Dynamic: advances the inner graph and invalidates all
// sampled subsets.
func (s *Subsample) Step() {
	s.inner.Step()
	s.epoch++
}

// fill samples node i's neighbor subset for the current epoch (at most
// once per epoch; repeated calls in the same step are cache hits). The
// draw comes from the dedicated (node, epoch) stream, so fill order across
// nodes never shifts any node's subset.
func (s *Subsample) fill(i int) {
	if s.cacheEpoch[i] == s.epoch {
		return
	}
	s.scratch = AppendNeighbors(s.inner, i, s.scratch[:0])
	chosen := s.cache[i][:0]
	if len(s.scratch) <= s.k {
		chosen = append(chosen, s.scratch...)
	} else {
		s.local.Reseed(rng.Seed(s.base, s.epoch, uint64(i)))
		s.idx = s.local.SampleDistinctInto(len(s.scratch), s.k, s.idx[:0])
		for _, idx := range s.idx {
			chosen = append(chosen, s.scratch[idx])
		}
	}
	s.cache[i] = chosen
	s.cacheEpoch[i] = s.epoch
}

// ForEachNeighbor implements Dynamic, yielding the sampled subset of i's
// current neighbors.
func (s *Subsample) ForEachNeighbor(i int, fn func(j int)) {
	s.fill(i)
	for _, j := range s.cache[i] {
		fn(int(j))
	}
}

// AppendNeighbors implements NeighborLister, the lazy per-node view: only
// queried nodes are sampled, which is what directed push semantics need
// from consumers that touch few nodes per step.
func (s *Subsample) AppendNeighbors(i int, dst []int32) []int32 {
	s.fill(i)
	return append(dst, s.cache[i]...)
}

// AppendArcs implements ArcBatcher, enumerating every node's sampled
// subset as directed arcs i → j ("i transmits to j"). Subsample
// deliberately does NOT implement Batcher: the virtual graph is directed,
// and undirected consumers would propagate against kept arcs. Because
// subsets are drawn from per-(node, epoch) streams, batching samples the
// same virtual graph the lazy view exposes.
func (s *Subsample) AppendArcs(dst []Edge) []Edge {
	n := s.inner.N()
	for i := 0; i < n; i++ {
		s.fill(i)
		for _, j := range s.cache[i] {
			dst = append(dst, Edge{int32(i), j})
		}
	}
	return dst
}
