package flood_test

// Fixed-seed equivalence pins of the bitset/scratch engine refactor AND
// the incremental-dynamics (delta) refactor on top of it: every engine in
// this package is re-run against a verbatim copy of its pre-refactor
// implementation ([]bool informed sets, per-run allocation, incremental
// size bookkeeping) over every registered model, and must return
// byte-identical Results, timeline included. Because delta-capable models
// steer flood.Run and Parsimonious onto the adjacency-backed incremental
// engines, those paths are pinned here too — directly, and through the
// Deltifier entry adapter (explicitly, or from Batcher-only and lister-only
// views of the model).
//
// One deliberate behavior change is NOT covered by these pins: the
// dyngraph.Subsample sampling scheme moved from one sequential RNG stream
// to per-(node, epoch) derived streams so that its arc batch and its lazy
// per-node view expose the same virtual graph. Randomized-push
// trajectories at a fixed seed therefore differ from pre-refactor binaries
// (same law, different draws); what is pinned here instead is that the new
// directed arc-scan engine and the pre-refactor member-scan engine agree
// exactly on the subsampled graph — the equivalence that scheme buys.

import (
	"reflect"
	"testing"

	"repro/internal/dyngraph"
	"repro/internal/flood"
	"repro/internal/graph"
	"repro/internal/model"
	_ "repro/internal/model/all"
	"repro/internal/rng"
)

// ---------------------------------------------------------------------------
// Reference implementations: the engines as they were before the refactor,
// copied verbatim (modulo exported names and the Opts.Scratch field, which
// they ignore).

func refMaxSteps(o flood.Opts) int {
	if o.MaxSteps <= 0 {
		return flood.DefaultMaxSteps
	}
	return o.MaxSteps
}

func refStart(n, source int, opts flood.Opts) (informed []bool, res flood.Result, done bool) {
	if source < 0 || source >= n {
		panic("flood: source out of range")
	}
	informed = make([]bool, n)
	informed[source] = true
	res = flood.Result{Time: -1, HalfTime: -1, Informed: 1}
	if opts.KeepTimeline {
		res.Timeline = append(res.Timeline, 1)
	}
	if 2 >= n {
		res.HalfTime = 0
	}
	if n == 1 {
		res.Time = 0
		res.Completed = true
		return informed, res, true
	}
	return informed, res, false
}

func refRecord(res *flood.Result, opts flood.Opts, n, size, t int) bool {
	res.Informed = size
	if opts.KeepTimeline {
		res.Timeline = append(res.Timeline, size)
	}
	if res.HalfTime < 0 && 2*size >= n {
		res.HalfTime = t + 1
	}
	if size == n {
		res.Time = t + 1
		res.Completed = true
		return true
	}
	return false
}

func refNeighborSource(d dyngraph.Dynamic) func(i int, dst []int32) []int32 {
	if l, ok := d.(dyngraph.NeighborLister); ok {
		return l.AppendNeighbors
	}
	return func(i int, dst []int32) []int32 {
		d.ForEachNeighbor(i, func(j int) {
			dst = append(dst, int32(j))
		})
		return dst
	}
}

func refRun(d dyngraph.Dynamic, source int, opts flood.Opts) flood.Result {
	n := d.N()
	informed, res, done := refStart(n, source, opts)
	if done {
		return res
	}
	if b, ok := d.(dyngraph.Batcher); ok {
		refEdgeScan(b, d, informed, opts, &res)
	} else {
		refMemberScan(d, informed, source, opts, &res)
	}
	return res
}

func refEdgeScan(b dyngraph.Batcher, d dyngraph.Dynamic, informed []bool, opts flood.Opts, res *flood.Result) {
	n := len(informed)
	size := 1
	pending := make([]bool, n)
	newly := make([]int32, 0, n)
	var edges []dyngraph.Edge
	maxSteps := refMaxSteps(opts)
	for t := 0; t < maxSteps; t++ {
		edges = b.AppendEdges(edges[:0])
		newly = newly[:0]
		for _, e := range edges {
			if informed[e.U] {
				if !informed[e.V] && !pending[e.V] {
					pending[e.V] = true
					newly = append(newly, e.V)
				}
			} else if informed[e.V] && !pending[e.U] {
				pending[e.U] = true
				newly = append(newly, e.U)
			}
		}
		for _, v := range newly {
			informed[v] = true
			pending[v] = false
		}
		size += len(newly)
		if refRecord(res, opts, n, size, t) {
			return
		}
		d.Step()
	}
}

func refMemberScan(d dyngraph.Dynamic, informed []bool, source int, opts flood.Opts, res *flood.Result) {
	n := len(informed)
	neighbors := refNeighborSource(d)
	members := make([]int32, 1, n)
	members[0] = int32(source)
	newly := make([]int32, 0, n)
	var nbrs []int32
	maxSteps := refMaxSteps(opts)
	for t := 0; t < maxSteps; t++ {
		newly = newly[:0]
		for _, i := range members {
			nbrs = neighbors(int(i), nbrs[:0])
			for _, j := range nbrs {
				if !informed[j] {
					informed[j] = true
					newly = append(newly, j)
				}
			}
		}
		members = append(members, newly...)
		if refRecord(res, opts, n, len(members), t) {
			return
		}
		d.Step()
	}
}

// refPush is pre-refactor RandomizedPush: plain flooding on the subsampled
// virtual graph. The old Run had no arc-scan, so the wrapper was flooded by
// member-scan over its lazy per-node views.
func refPush(d dyngraph.Dynamic, source, k int, r *rng.RNG, opts flood.Opts) flood.Result {
	sub := dyngraph.NewSubsample(d, k, r)
	n := sub.N()
	informed, res, done := refStart(n, source, opts)
	if done {
		return res
	}
	refMemberScan(sub, informed, source, opts, &res)
	return res
}

func refPull(d dyngraph.Dynamic, source int, r *rng.RNG, opts flood.Opts) flood.Result {
	n := d.N()
	informed, res, done := refStart(n, source, opts)
	if done {
		return res
	}
	neighbors := refNeighborSource(d)

	size := 1
	var nbrs []int32
	newly := make([]int32, 0, n)
	maxSteps := refMaxSteps(opts)
	for t := 0; t < maxSteps; t++ {
		newly = newly[:0]
		for i := 0; i < n; i++ {
			if informed[i] {
				continue
			}
			nbrs = neighbors(i, nbrs[:0])
			if len(nbrs) == 0 {
				continue
			}
			if informed[nbrs[r.Intn(len(nbrs))]] {
				newly = append(newly, int32(i))
			}
		}
		for _, i := range newly {
			informed[i] = true
		}
		size += len(newly)
		if refRecord(&res, opts, n, size, t) {
			return res
		}
		d.Step()
	}
	return res
}

func refPushPull(d dyngraph.Dynamic, source, k int, r *rng.RNG, opts flood.Opts) flood.Result {
	n := d.N()
	informed, res, done := refStart(n, source, opts)
	if done {
		return res
	}
	neighbors := refNeighborSource(d)

	size := 1
	pending := make([]bool, n)
	newly := make([]int32, 0, n)
	var nbrs []int32
	maxSteps := refMaxSteps(opts)
	for t := 0; t < maxSteps; t++ {
		newly = newly[:0]
		for i := 0; i < n; i++ {
			nbrs = neighbors(i, nbrs[:0])
			if len(nbrs) == 0 {
				continue
			}
			if informed[i] {
				if len(nbrs) <= k {
					for _, j := range nbrs {
						if !informed[j] && !pending[j] {
							pending[j] = true
							newly = append(newly, j)
						}
					}
				} else {
					for _, idx := range r.SampleDistinct(len(nbrs), k) {
						if j := nbrs[idx]; !informed[j] && !pending[j] {
							pending[j] = true
							newly = append(newly, j)
						}
					}
				}
			} else if !pending[i] {
				if informed[nbrs[r.Intn(len(nbrs))]] {
					pending[i] = true
					newly = append(newly, int32(i))
				}
			}
		}
		for _, j := range newly {
			informed[j] = true
			pending[j] = false
		}
		size += len(newly)
		if refRecord(&res, opts, n, size, t) {
			return res
		}
		d.Step()
	}
	return res
}

func refParsimonious(d dyngraph.Dynamic, source, active int, opts flood.Opts) flood.Result {
	n := d.N()
	informed, res, done := refStart(n, source, opts)
	if done {
		return res
	}
	neighbors := refNeighborSource(d)

	expiry := make([]int32, n)
	activeList := make([]int32, 1, n)
	activeList[0] = int32(source)
	expiry[source] = int32(active - 1)

	size := 1
	newly := make([]int32, 0, n)
	var nbrs []int32
	maxSteps := refMaxSteps(opts)
	for t := 0; t < maxSteps; t++ {
		newly = newly[:0]
		for _, i := range activeList {
			nbrs = neighbors(int(i), nbrs[:0])
			for _, j := range nbrs {
				if !informed[j] {
					informed[j] = true
					newly = append(newly, j)
				}
			}
		}
		keep := activeList[:0]
		for _, i := range activeList {
			if int(expiry[i]) > t {
				keep = append(keep, i)
			}
		}
		activeList = keep
		for _, j := range newly {
			expiry[j] = int32(t + active)
			activeList = append(activeList, j)
		}
		size += len(newly)
		if refRecord(&res, opts, n, size, t) {
			return res
		}
		if len(activeList) == 0 {
			return res
		}
		d.Step()
	}
	return res
}

// ---------------------------------------------------------------------------
// The pins.

// equivModels covers every registered model family at small sizes.
var equivModels = []model.Spec{
	model.New("edgemeg").WithInt("n", 96).WithFloat("p", 0.01).WithFloat("q", 0.09),
	model.New("edgemeg").WithInt("n", 64).WithFloat("p", 0.02).WithFloat("q", 0.18).WithBool("dense", true),
	model.New("edgemeg").WithInt("n", 96).WithFloat("p", 0.01).WithFloat("q", 0.09).WithBool("fastchurn", true),
	model.New("edgemeg4").WithInt("n", 64),
	model.New("waypoint").WithInt("n", 64).WithFloat("L", 12).WithFloat("r", 1.5),
	model.New("direction").WithInt("n", 64).WithFloat("L", 12).WithFloat("r", 1.5),
	model.New("dwaypoint").WithInt("n", 40).WithInt("m", 5),
	model.New("walk").WithInt("n", 48).WithInt("m", 8),
	model.New("paths").WithInt("n", 24).WithInt("m", 6),
	model.New("static").With("topology", "torus").WithInt("m", 7),
}

// stripCost zeroes the message-cost fields PR 8 added to Result, for
// comparisons against the verbatim pre-refactor reference engines, which
// never tracked cost.
func stripCost(r flood.Result) flood.Result {
	r.Messages, r.Useless, r.CostTimeline = 0, 0, nil
	return r
}

// forceMemberScan hides batch interfaces while keeping NeighborLister
// visible to match how the old engine saw the same model; the delta
// engines enter it through the Deltifier's per-node snapshot capture.
type forceMemberScan struct{ d dyngraph.Dynamic }

func (f forceMemberScan) N() int                                { return f.d.N() }
func (f forceMemberScan) Step()                                 { f.d.Step() }
func (f forceMemberScan) ForEachNeighbor(i int, fn func(j int)) { f.d.ForEachNeighbor(i, fn) }
func (f forceMemberScan) AppendNeighbors(i int, dst []int32) []int32 {
	return dyngraph.AppendNeighbors(f.d, i, dst)
}

// forceBatchScan hides DeltaBatcher (and the per-node view) while keeping
// Batcher, so the delta engines enter it through the Deltifier — the path
// any model without a native delta stream takes, which must agree with
// the native stream exactly.
type forceBatchScan struct{ d dyngraph.Dynamic }

func (f forceBatchScan) N() int                                { return f.d.N() }
func (f forceBatchScan) Step()                                 { f.d.Step() }
func (f forceBatchScan) ForEachNeighbor(i int, fn func(j int)) { f.d.ForEachNeighbor(i, fn) }
func (f forceBatchScan) AppendEdges(dst []dyngraph.Edge) []dyngraph.Edge {
	return dyngraph.AppendEdges(f.d, dst)
}

func TestEnginesMatchPreRefactorReference(t *testing.T) {
	opts := flood.Opts{MaxSteps: 1 << 14, KeepTimeline: true}
	for _, ms := range equivModels {
		for _, seed := range []uint64{1, 42} {
			build := func() dyngraph.Dynamic { return model.MustBuild(ms, seed) }
			// The flood and parsimonious references are shared by several
			// cases below (the runs are deterministic per (spec, seed)).
			refFlood := refRun(build(), 0, opts)
			refPars := refParsimonious(build(), 0, 6, opts)
			cases := []struct {
				name      string
				got, want flood.Result
			}{
				// For delta-capable models (the edge-MEG family, static,
				// traces) the first case exercises the incremental
				// delta-scan engine against the pre-refactor reference.
				{"flood", flood.Run(build(), 0, opts), refFlood},
				{"flood/batch-scan",
					flood.Run(forceBatchScan{build()}, 0, opts),
					refFlood},
				{"flood/deltified",
					// The generic diff adapter must expose the same virtual
					// graph as the model it wraps, whatever path Run picks.
					flood.Run(dyngraph.NewDeltifier(build()), 0, opts),
					refFlood},
				{"flood/member-scan",
					flood.Run(forceMemberScan{build()}, 0, opts),
					refRun(forceMemberScan{build()}, 0, opts)},
				{"push/arc-scan-vs-member-scan",
					flood.RandomizedPush(build(), 0, 2, rng.New(7), opts),
					refPush(build(), 0, 2, rng.New(7), opts)},
				{"pull",
					flood.Pull(build(), 0, rng.New(11), opts),
					refPull(build(), 0, rng.New(11), opts)},
				{"pushpull",
					flood.PushPull(build(), 0, 1, rng.New(13), opts),
					refPushPull(build(), 0, 1, rng.New(13), opts)},
				{"parsimonious",
					// Delta-capable models take the incremental
					// adjacency-backed window engine here.
					flood.Parsimonious(build(), 0, 6, opts),
					refPars},
				{"parsimonious/deltified",
					flood.Parsimonious(dyngraph.NewDeltifier(build()), 0, 6, opts),
					refPars},
			}
			for _, c := range cases {
				// The references predate message-cost accounting, so the
				// comparison strips the cost fields — the trajectory pins
				// stay exact, and the cost fields have their own pins
				// (cost_test.go conservation, async dispatch equivalence).
				if !reflect.DeepEqual(stripCost(c.got), c.want) {
					t.Errorf("%v seed %d %s: refactored %+v != reference %+v",
						ms, seed, c.name, c.got, c.want)
				}
			}
		}
	}
}

// TestMobilityDispatchEquivalence pins the incremental-mobility tentpole:
// for every geometric model the native delta path (fed by the models' own
// AppendDeltas), the Batcher-only view (deltified at engine entry), and
// an explicit Deltifier wrapper must produce
// byte-identical Results at fixed seeds — including the PR 8 cost fields
// and timelines, which stripCost hides in the pre-refactor pins above.
func TestMobilityDispatchEquivalence(t *testing.T) {
	opts := flood.Opts{MaxSteps: 1 << 14, KeepTimeline: true}
	mobilitySpecs := []model.Spec{
		model.New("waypoint").WithInt("n", 64).WithFloat("L", 12).WithFloat("r", 1.5),
		// Pause-heavy waypoint: most nodes rest most steps, so the moved
		// set is a small fraction of n — the regime the O(moved × density)
		// step is built for, and the dedup rule's hardest case (moved and
		// unmoved endpoints mix freely).
		model.New("waypoint").WithInt("n", 64).WithFloat("L", 12).WithFloat("r", 1.5).
			WithInt("pause", 8).With("init", "uniform").WithInt("warmup", 5),
		model.New("direction").WithInt("n", 64).WithFloat("L", 12).WithFloat("r", 1.5),
		model.New("dwaypoint").WithInt("n", 40).WithInt("m", 5),
		model.New("walk").WithInt("n", 48).WithInt("m", 8),
	}
	for _, ms := range mobilitySpecs {
		for _, seed := range []uint64{1, 7, 42, 1234} {
			build := func() dyngraph.Dynamic { return model.MustBuild(ms, seed) }
			if _, ok := build().(dyngraph.DeltaBatcher); !ok {
				t.Fatalf("%v: expected a native DeltaBatcher", ms)
			}
			native := flood.Run(build(), 0, opts)
			if batch := flood.Run(forceBatchScan{build()}, 0, opts); !reflect.DeepEqual(native, batch) {
				t.Errorf("%v seed %d: flood delta %+v != batch %+v", ms, seed, native, batch)
			}
			if df := flood.Run(dyngraph.NewDeltifier(build()), 0, opts); !reflect.DeepEqual(native, df) {
				t.Errorf("%v seed %d: flood delta %+v != deltified %+v", ms, seed, native, df)
			}
			pNative := flood.Parsimonious(build(), 0, 6, opts)
			if pb := flood.Parsimonious(forceBatchScan{build()}, 0, 6, opts); !reflect.DeepEqual(pNative, pb) {
				t.Errorf("%v seed %d: parsimonious delta %+v != batch %+v", ms, seed, pNative, pb)
			}
			if pd := flood.Parsimonious(dyngraph.NewDeltifier(build()), 0, 6, opts); !reflect.DeepEqual(pNative, pd) {
				t.Errorf("%v seed %d: parsimonious delta %+v != deltified %+v", ms, seed, pNative, pd)
			}
		}
	}
}

// BenchmarkEngineOnly* isolate the spreading core from model simulation
// (static graph: Step is free, snapshot access is an append), pitting the
// bitset/scratch engines against their pre-refactor references. This is
// the apples-to-apples number behind the README's performance table — the
// end-to-end BenchmarkFlood* family is dominated by model construction
// and per-step Markov simulation.

func BenchmarkEngineOnlyBitset(b *testing.B) {
	d := dyngraph.NewStatic(graph.Torus(64, 64))
	b.ReportAllocs()
	opts := flood.Opts{MaxSteps: 1 << 10, Scratch: flood.NewScratch()}
	for i := 0; i < b.N; i++ {
		if res := flood.Run(d, 0, opts); !res.Completed {
			b.Fatal("incomplete")
		}
	}
}

func BenchmarkEngineOnlyReference(b *testing.B) {
	d := dyngraph.NewStatic(graph.Torus(64, 64))
	b.ReportAllocs()
	opts := flood.Opts{MaxSteps: 1 << 10}
	for i := 0; i < b.N; i++ {
		if res := refRun(d, 0, opts); !res.Completed {
			b.Fatal("incomplete")
		}
	}
}

func BenchmarkEngineOnlyPullBitset(b *testing.B) {
	d := dyngraph.NewStatic(graph.Torus(32, 32))
	r := rng.New(5)
	b.ReportAllocs()
	opts := flood.Opts{MaxSteps: 1 << 14, Scratch: flood.NewScratch()}
	for i := 0; i < b.N; i++ {
		if res := flood.Pull(d, 0, r, opts); !res.Completed {
			b.Fatal("incomplete")
		}
	}
}

func BenchmarkEngineOnlyPullReference(b *testing.B) {
	d := dyngraph.NewStatic(graph.Torus(32, 32))
	r := rng.New(5)
	b.ReportAllocs()
	opts := flood.Opts{MaxSteps: 1 << 14}
	for i := 0; i < b.N; i++ {
		if res := refPull(d, 0, r, opts); !res.Completed {
			b.Fatal("incomplete")
		}
	}
}

// TestScratchWarmthDoesNotChangeResults runs every engine over every model
// twice through one shared scratch — cold, then warm, in an order designed
// to leave stale state from a different engine in the buffers — and checks
// each result equals the scratch-free run. This is the contract that lets
// internal/study hand one Scratch to a worker serving thousands of
// heterogeneous trials.
func TestScratchWarmthDoesNotChangeResults(t *testing.T) {
	sc := flood.NewScratch()
	for round := 0; round < 2; round++ {
		for _, ms := range equivModels {
			seed := uint64(3)
			plain := flood.Opts{MaxSteps: 1 << 14, KeepTimeline: true}
			shared := plain
			shared.Scratch = sc
			// Each delta engine also runs over the Batcher-only view of the
			// model right after its native run, so the shared scratch
			// alternates between the native churn stream and its held
			// Deltifier entry adapter.
			batchOnly := func() dyngraph.Dynamic { return forceBatchScan{model.MustBuild(ms, seed)} }
			run := func(o flood.Opts) []flood.Result {
				return []flood.Result{
					flood.Run(model.MustBuild(ms, seed), 0, o),
					flood.Run(batchOnly(), 0, o),
					flood.RandomizedPush(model.MustBuild(ms, seed), 0, 2, rng.New(7), o),
					flood.Pull(model.MustBuild(ms, seed), 0, rng.New(11), o),
					flood.PushPull(model.MustBuild(ms, seed), 0, 1, rng.New(13), o),
					flood.Parsimonious(model.MustBuild(ms, seed), 0, 6, o),
					flood.Parsimonious(batchOnly(), 0, 6, o),
					flood.Async(model.MustBuild(ms, seed), 0, 1, 17, o),
					flood.Async(batchOnly(), 0, 1, 17, o),
				}
			}
			if got, want := run(shared), run(plain); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d %v: scratch-backed results differ:\n%+v\nvs\n%+v",
					round, ms, got, want)
			}
		}
	}
}
