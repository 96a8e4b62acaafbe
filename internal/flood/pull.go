package flood

import (
	"repro/internal/dyngraph"
	"repro/internal/rng"
)

// Pull runs the pull-gossip protocol over a dynamic graph: at every step,
// each *uninformed* node queries one uniformly random current neighbor and
// becomes informed if that neighbor is. The paper's conclusions note that
// such protocols "might also be reduced to flooding by folding the actions
// of the protocol into the dynamic graph process" — pull is flooding on the
// virtual graph keeping, per uninformed node, one incoming edge.
//
// Pull inverts flooding's cost profile: per-step work is O(Σ_{uninformed}
// deg) and the saturation phase is fast (stragglers pull from an almost
// fully informed population) while the early phase is slow. The sweep is
// synchronous: all pulls observe the informed set as of the start of the
// step — successful pulls land in the pending bitset and are committed at
// step end. The uninformed sweep itself iterates the complement of the
// informed bitset word-wise, so fully-informed words (the common case in
// the late phase pull is good at) cost one compare.
//
// Pull deliberately has no engine-side delta fast path: the r.Intn draw
// indexes into the neighbor list, so the trajectory at a fixed seed
// depends on neighbor ORDER, which a scratch-held delta-maintained
// adjacency does not preserve. The incremental win lands model-side
// instead — edge-MEG simulators keep their own neighbor lists live in
// O(churn) per step (in rebuild-identical order), so the per-node batches
// this engine reads no longer pay an O(m) per-step rebuild.
func Pull(d dyngraph.Dynamic, source int, r *rng.RNG, opts Opts) Result {
	n := d.N()
	sc, res, done := start(n, source, opts)
	if done {
		return res
	}
	informed, pending := sc.informed, sc.pending

	maxSteps := opts.maxSteps()
	for t := 0; t < maxSteps; t++ {
		sc.queue = informed.AppendUnset(sc.queue[:0])
		// Message accounting: only an answered query moves the rumor — a
		// query to an uninformed neighbor transfers nothing and costs
		// nothing — and each success first-informs its own querier, so pull
		// is the zero-waste engine: Useless stays 0 by construction.
		var msgs int64
		for _, i := range sc.queue {
			sc.nbrs = dyngraph.AppendNeighbors(d, int(i), sc.nbrs[:0])
			if len(sc.nbrs) == 0 {
				continue
			}
			if informed.Get(int(sc.nbrs[r.Intn(len(sc.nbrs))])) {
				msgs++
				pending.Set(int(i))
			}
		}
		if record(&res, opts, n, informed.Absorb(&pending), t, msgs) {
			return res
		}
		d.Step()
	}
	return res
}
