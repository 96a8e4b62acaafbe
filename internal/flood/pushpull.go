package flood

import (
	"repro/internal/dyngraph"
	"repro/internal/rng"
)

// PushPull runs the combined push–pull gossip protocol over a dynamic
// graph: at every step each *informed* node transmits to at most k
// uniformly random current neighbors (the §5 randomized push) while each
// *uninformed* node queries one uniformly random current neighbor and
// becomes informed if that neighbor is (pull). It is the classic
// push–pull rumor spreading of Karp et al., run on dynamic snapshots —
// the variant compared across dynamic-graph families by Clementi et al.
// (2013) and Pourmiri–Mans (2020).
//
// The per-step cost profile sits between push and pull: early rounds are
// driven by the cheap push half (few informed nodes transmitting), late
// rounds by the pull half (few uninformed nodes querying an almost fully
// informed population), so neither phase pays the other's weakness. Both
// halves observe the informed set as of the start of the step
// (synchronous sweep), and RNG consumption is in node order — informed
// nodes draw their push targets, uninformed nodes their pull target — so
// equal (graph realization, RNG stream) pairs replay exactly.
//
// Like Pull, this engine keeps reading the model's own neighbor view
// rather than a scratch-held delta adjacency: both the k-subset draw and
// the pull draw index into the neighbor list, pinning the fixed-seed
// trajectory to the model's neighbor order. Edge-MEG models serve that
// view incrementally in O(churn) per step, which is where the delta
// refactor speeds this engine up.
func PushPull(d dyngraph.Dynamic, source, k int, r *rng.RNG, opts Opts) Result {
	if k <= 0 {
		panic("flood: PushPull needs k > 0")
	}
	n := d.N()
	sc, res, done := start(n, source, opts)
	if done {
		return res
	}
	informed, pending := sc.informed, sc.pending

	maxSteps := opts.maxSteps()
	for t := 0; t < maxSteps; t++ {
		// Message accounting: every push contact delivers the rumor (one
		// message each, useful or not); a pull costs one only when the
		// queried neighbor is informed and answers, like the Pull engine.
		var msgs int64
		for i := 0; i < n; i++ {
			sc.nbrs = dyngraph.AppendNeighbors(d, i, sc.nbrs[:0])
			if len(sc.nbrs) == 0 {
				continue
			}
			if informed.Get(i) {
				// Push: contact at most k distinct random neighbors.
				if len(sc.nbrs) <= k {
					msgs += int64(len(sc.nbrs))
					for _, j := range sc.nbrs {
						pending.Set(int(j))
					}
				} else {
					msgs += int64(k)
					sc.idx = r.SampleDistinctInto(len(sc.nbrs), k, sc.idx[:0])
					for _, idx := range sc.idx {
						pending.Set(int(sc.nbrs[idx]))
					}
				}
			} else if !pending.Get(i) {
				// Pull: query one random neighbor's start-of-step state.
				// A node already pushed to this step skips its pull (and
				// its RNG draw), preserving the engine's historical
				// random-stream consumption.
				if informed.Get(int(sc.nbrs[r.Intn(len(sc.nbrs))])) {
					msgs++
					pending.Set(i)
				}
			}
		}
		if record(&res, opts, n, informed.Absorb(&pending), t, msgs) {
			return res
		}
		d.Step()
	}
	return res
}
