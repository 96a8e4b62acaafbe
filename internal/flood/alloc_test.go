package flood

// Allocation-regression pins of the scratch refactor: once a run has
// warmed its Scratch, the engine hot loops must not touch the heap at all.
// The graphs are static (Step is a no-op and snapshot access appends into
// caller buffers), so every measured allocation would belong to the engine
// itself, not the model.

import (
	"testing"

	"repro/internal/dyngraph"
	"repro/internal/graph"
	"repro/internal/rng"
)

// assertZeroAlloc warms the scratch with one run, then measures.
func assertZeroAlloc(t *testing.T, name string, run func()) {
	t.Helper()
	run() // warm the scratch
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("%s: %.1f allocs per warm run, want 0", name, allocs)
	}
}

func TestFloodDeltaScanZeroAlloc(t *testing.T) {
	// Static implements DeltaBatcher, so the default path is the
	// incremental delta-scan engine (persistent adjacency + active set).
	d := dyngraph.NewStatic(graph.Torus(16, 16))
	opts := Opts{MaxSteps: 1 << 10, Scratch: NewScratch()}
	if res := Run(d, 0, opts); !res.Completed {
		t.Fatal("flood on the torus did not complete")
	}
	assertZeroAlloc(t, "flood delta-scan", func() { Run(d, 0, opts) })
}

// batcherOnly hides DeltaBatcher (and the per-node view), so the run enters
// through the scratch-held Deltifier, which snapshots it via AppendEdges.
type batcherOnly struct{ s *dyngraph.Static }

func (b batcherOnly) N() int                                { return b.s.N() }
func (b batcherOnly) Step()                                 { b.s.Step() }
func (b batcherOnly) ForEachNeighbor(i int, fn func(j int)) { b.s.ForEachNeighbor(i, fn) }
func (b batcherOnly) AppendEdges(d []dyngraph.Edge) []dyngraph.Edge {
	return b.s.AppendEdges(d)
}

func TestFloodEdgeScanZeroAlloc(t *testing.T) {
	d := batcherOnly{dyngraph.NewStatic(graph.Torus(16, 16))}
	opts := Opts{MaxSteps: 1 << 10, Scratch: NewScratch()}
	if res := Run(d, 0, opts); !res.Completed {
		t.Fatal("flood on the torus did not complete")
	}
	assertZeroAlloc(t, "flood edge-scan", func() { Run(d, 0, opts) })
}

// listerOnly hides every view but the per-node lister, so the scratch-held
// Deltifier snapshots it node by node through its held neighbor buffer.
type listerOnly struct{ s *dyngraph.Static }

func (l listerOnly) N() int                                     { return l.s.N() }
func (l listerOnly) Step()                                      { l.s.Step() }
func (l listerOnly) ForEachNeighbor(i int, fn func(j int))      { l.s.ForEachNeighbor(i, fn) }
func (l listerOnly) AppendNeighbors(i int, dst []int32) []int32 { return l.s.AppendNeighbors(i, dst) }

func TestFloodMemberScanZeroAlloc(t *testing.T) {
	d := listerOnly{dyngraph.NewStatic(graph.Torus(16, 16))}
	opts := Opts{MaxSteps: 1 << 10, Scratch: NewScratch()}
	assertZeroAlloc(t, "flood member-scan", func() { Run(d, 0, opts) })
}

func TestPullZeroAlloc(t *testing.T) {
	d := dyngraph.NewStatic(graph.Torus(12, 12))
	r := rng.New(5)
	opts := Opts{MaxSteps: 1 << 12, Scratch: NewScratch()}
	if res := Pull(d, 0, r, opts); !res.Completed {
		t.Fatal("pull on the torus did not complete")
	}
	assertZeroAlloc(t, "pull", func() { Pull(d, 0, r, opts) })
}

func TestPushPullZeroAlloc(t *testing.T) {
	d := dyngraph.NewStatic(graph.Torus(12, 12))
	r := rng.New(5)
	opts := Opts{MaxSteps: 1 << 12, Scratch: NewScratch()}
	assertZeroAlloc(t, "pushpull", func() { PushPull(d, 0, 2, r, opts) })
}

func TestParsimoniousZeroAlloc(t *testing.T) {
	// The static model is delta-capable, so this exercises the
	// adjacency-backed incremental window engine.
	d := dyngraph.NewStatic(graph.Torus(12, 12))
	opts := Opts{MaxSteps: 1 << 12, Scratch: NewScratch()}
	assertZeroAlloc(t, "parsimonious delta", func() { Parsimonious(d, 0, 64, opts) })
}

func TestParsimoniousMemberPathZeroAlloc(t *testing.T) {
	d := listerOnly{dyngraph.NewStatic(graph.Torus(12, 12))}
	opts := Opts{MaxSteps: 1 << 12, Scratch: NewScratch()}
	assertZeroAlloc(t, "parsimonious member-path", func() { Parsimonious(d, 0, 64, opts) })
}

func TestRandomizedPushZeroAlloc(t *testing.T) {
	d := dyngraph.NewStatic(graph.Torus(12, 12))
	r := rng.New(5)
	opts := Opts{MaxSteps: 1 << 12, Scratch: NewScratch()}
	assertZeroAlloc(t, "randomized push (arc-scan)", func() { RandomizedPush(d, 0, 2, r, opts) })
}

// The async engine owes the same contract whether the model streams its
// churn natively or enters through the Deltifier (Batcher-only and
// lister-only views): a warm scratch (event wheel ring/heaps, per-node
// clocks, adjacency, Deltifier) serves every run without heap traffic. Runs are deterministic per clock seed,
// so the warm-up run reaches every buffer's high-water capacity.

func TestAsyncDeltaZeroAlloc(t *testing.T) {
	d := dyngraph.NewStatic(graph.Torus(12, 12))
	opts := Opts{MaxSteps: 1 << 12, Scratch: NewScratch()}
	if res := Async(d, 0, 1, 7, opts); !res.Completed {
		t.Fatal("async on the torus did not complete")
	}
	assertZeroAlloc(t, "async delta", func() { Async(d, 0, 1, 7, opts) })
}

func TestAsyncBatchZeroAlloc(t *testing.T) {
	d := batcherOnly{dyngraph.NewStatic(graph.Torus(12, 12))}
	opts := Opts{MaxSteps: 1 << 12, Scratch: NewScratch()}
	assertZeroAlloc(t, "async batch", func() { Async(d, 0, 1, 7, opts) })
}

func TestAsyncMemberZeroAlloc(t *testing.T) {
	d := listerOnly{dyngraph.NewStatic(graph.Torus(12, 12))}
	opts := Opts{MaxSteps: 1 << 12, Scratch: NewScratch()}
	assertZeroAlloc(t, "async member", func() { Async(d, 0, 1, 7, opts) })
}
