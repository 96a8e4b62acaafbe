package flood

import (
	"repro/internal/bitset"
	"repro/internal/dyngraph"
	"repro/internal/eventwheel"
	"repro/internal/rng"
)

// Scratch is the reusable working state of one spreading run: the informed
// and pending bitsets, the snapshot edge buffer, the per-node neighbor
// buffer, the member/active queues, the delta-maintained adjacency, and the
// view adapters (the subsampled-graph wrapper of k-push, the Deltifier for
// models without a native delta stream). Every engine in this package draws its state from a Scratch, so
// a caller that runs many trials — internal/study gives each worker one —
// pays the allocation cost once and every later trial runs the hot loop
// with zero heap allocations (asserted by TestFloodRunZeroAlloc*).
//
// A Scratch may be reused freely across sequential runs of any engines and
// any models (each run resets exactly the state it uses), but never shared
// across concurrent runs. The zero value is ready to use; a nil
// Opts.Scratch simply makes the run allocate private state, preserving the
// fire-and-forget call style.
type Scratch struct {
	// informed is I_t; pending accumulates the nodes reached during the
	// current step, committed into informed at step end (Absorb) so that
	// same-step chained propagation — wrong in a dynamic graph — cannot
	// happen.
	informed bitset.Set
	pending  bitset.Set
	// edges receives a flat snapshot batch: the arc batch of the k-push
	// arc scan, or the seeding snapshot of the delta engines.
	edges []dyngraph.Edge
	// nbrs receives one node's neighbor batch (pull, push–pull).
	nbrs []int32
	// queue holds the node list driving a round: active members (flood),
	// uninformed nodes (pull), or active transmitters (parsimonious).
	queue []int32
	// newly collects nodes informed this round when the engine needs them
	// individually (parsimonious window bookkeeping).
	newly []int32
	// expiry is parsimonious' per-node last-transmission step.
	expiry []int32
	// idx is the SampleDistinctInto buffer of the push–pull fan-out draw.
	idx []int
	// sub is the reusable subsampled-graph wrapper of RandomizedPush.
	sub *dyngraph.Subsample
	// df is the reusable entry adapter of Run, Async and Parsimonious for
	// models that do not stream their churn natively.
	df *dyngraph.Deltifier
	// adj is the persistent neighbor store of the delta engines: seeded
	// from one snapshot batch at run start, then maintained in place from
	// the model's per-step churn (dyngraph.DeltaBatcher), so the engine
	// never rescans unchanged edges.
	adj dyngraph.Adjacency
	// active marks informed nodes that may still have uninformed neighbors
	// — the only nodes the delta flood engine scans each step. A node
	// leaves the set when a scan finds its neighborhood fully informed and
	// re-enters only when a born edge touches it. Two-level: the per-step
	// member sweep walks O(active words), not O(n/64) — at n = 10^6 the
	// active set collapses to a handful of nodes for most of the run and a
	// flat sweep would dominate the step.
	active bitset.TwoLevel
	// fresh is the delta engine's pending set — the nodes reached during
	// the current step. Two-level for the same reason as active: listing
	// and committing the step's few newly informed nodes must not cost a
	// walk over the whole universe.
	fresh bitset.TwoLevel
	// born and died receive the per-step churn batches.
	born, died []dyngraph.Edge
	// bornTotal/diedTotal/movedTotal/deltaSteps accumulate the delta
	// engines' churn stream across every run sharing this scratch: edges
	// born, edges died, nodes moved (models exposing
	// dyngraph.MoveReporter), and model steps consumed. internal/study
	// harvests them into the born_per_step/died_per_step/moved_per_step
	// telemetry gauges. Plain counters on the owning worker's scratch — no
	// atomics on the hot path.
	bornTotal, diedTotal, movedTotal, deltaSteps int64
	// wheel is the async engine's event scheduler; clocks its per-node
	// Poisson-clock RNG streams. Both are sized lazily by the first async
	// run and reused across trials like every other buffer.
	wheel  *eventwheel.Wheel
	clocks []rng.RNG
}

// NewScratch returns an empty Scratch. Buffers are sized lazily by the
// first run and grow monotonically, so one Scratch serves mixed workloads.
func NewScratch() *Scratch { return &Scratch{} }

// Bytes returns the heap bytes currently retained by the scratch's
// buffers — the number a telemetry gauge reports as the per-worker memory
// footprint of the spreading engine. It is an accounting sum over backing
// array capacities (bitset words, edge and index buffers, adjacency lists,
// subsample caches, Deltifier snapshots), not a runtime measurement, so it
// is cheap enough to call between trials but is NOT part of the zero-alloc
// hot path contract.
func (sc *Scratch) Bytes() int64 {
	b := sc.informed.Bytes() + sc.pending.Bytes() + sc.active.Bytes() + sc.fresh.Bytes()
	b += int64(cap(sc.edges))*8 + int64(cap(sc.born))*8 + int64(cap(sc.died))*8
	b += int64(cap(sc.nbrs))*4 + int64(cap(sc.queue))*4 + int64(cap(sc.newly))*4 + int64(cap(sc.expiry))*4
	b += int64(cap(sc.idx)) * 8
	b += sc.adj.Bytes()
	if sc.sub != nil {
		b += sc.sub.Bytes()
	}
	if sc.df != nil {
		b += sc.df.Bytes()
	}
	if sc.wheel != nil {
		b += sc.wheel.Bytes()
	}
	b += int64(cap(sc.clocks)) * 8
	return b
}

// ChurnTotals returns the cumulative churn the delta engines streamed
// through this scratch across every run that shared it: edges born, edges
// died, nodes moved (0 unless the model reports motion via
// dyngraph.MoveReporter), and model steps consumed. internal/study turns
// the totals into the born_per_step/died_per_step/moved_per_step
// telemetry gauges.
func (sc *Scratch) ChurnTotals() (born, died, moved, steps int64) {
	return sc.bornTotal, sc.diedTotal, sc.movedTotal, sc.deltaSteps
}

// reset prepares the scratch for a run over n nodes. Only the bitsets need
// clearing — slice buffers are truncated at use sites and expiry is fully
// overwritten before any read.
func (sc *Scratch) reset(n int) {
	sc.informed.Reset(n)
	sc.pending.Reset(n)
}

// subsample returns a subsampled view of d with fan-out k, reusing the
// scratch-held wrapper across trials when possible.
func (sc *Scratch) subsample(d dyngraph.Dynamic, k int, r *rng.RNG) *dyngraph.Subsample {
	if sc.sub == nil {
		sc.sub = dyngraph.NewSubsample(d, k, r)
	} else {
		sc.sub.Reset(d, k, r)
	}
	return sc.sub
}

// deltaGraph is the one undirected engine contract: a dynamic graph that
// streams its per-step churn.
type deltaGraph interface {
	dyngraph.Dynamic
	dyngraph.DeltaBatcher
}

// deltaGraph returns d itself when it streams its churn natively, and
// otherwise the scratch-held Deltifier reset over d. It panics on a
// directed dyngraph.ArcBatcher, which has no undirected snapshot to diff.
func (sc *Scratch) deltaGraph(d dyngraph.Dynamic) deltaGraph {
	if g, ok := d.(deltaGraph); ok {
		return g
	}
	if sc.df == nil {
		sc.df = &dyngraph.Deltifier{}
	}
	sc.df.Reset(d)
	return sc.df
}

// seed loads g's current snapshot into the adjacency — the start of every
// delta engine run.
func (sc *Scratch) seed(g deltaGraph) {
	sc.edges = dyngraph.AppendEdges(g, sc.edges[:0])
	sc.adj.Reset(g.N())
	sc.adj.AddEdges(sc.edges)
}

// advance steps g, applies its churn to the adjacency, leaves the churn in
// born/died for the engine's own bookkeeping, and accumulates the churn
// totals.
func (sc *Scratch) advance(g deltaGraph) {
	g.Step()
	sc.born, sc.died = g.AppendDeltas(sc.born[:0], sc.died[:0])
	sc.adj.Apply(sc.born, sc.died)
	sc.bornTotal += int64(len(sc.born))
	sc.diedTotal += int64(len(sc.died))
	if mr, ok := g.(dyngraph.MoveReporter); ok {
		sc.movedTotal += int64(mr.MovedLastStep())
	}
	sc.deltaSteps++
}

// expirySlice returns the expiry buffer sized to n. Values are garbage
// until assigned; parsimonious assigns every entry it later reads.
func (sc *Scratch) expirySlice(n int) []int32 {
	if cap(sc.expiry) < n {
		sc.expiry = make([]int32, n)
	}
	return sc.expiry[:n]
}

// asyncState returns the event wheel (reset for n nodes) and the per-node
// clock buffer of the async engine. Clock entries are garbage until
// reseeded; Async reseeds every entry before any draw.
func (sc *Scratch) asyncState(n int) (*eventwheel.Wheel, []rng.RNG) {
	if sc.wheel == nil {
		sc.wheel = eventwheel.New(TicksPerStep, asyncWheelBuckets)
	}
	sc.wheel.Reset(n)
	if cap(sc.clocks) < n {
		sc.clocks = make([]rng.RNG, n)
	}
	return sc.wheel, sc.clocks[:n]
}
