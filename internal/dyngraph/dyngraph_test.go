package dyngraph

import (
	"bytes"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

func TestStaticAdapter(t *testing.T) {
	g := graph.Cycle(5)
	d := NewStatic(g)
	if d.N() != 5 {
		t.Fatal("N wrong")
	}
	d.Step() // no-op
	count := 0
	d.ForEachNeighbor(0, func(j int) {
		if j != 1 && j != 4 {
			t.Fatalf("unexpected neighbor %d", j)
		}
		count++
	})
	if count != 2 {
		t.Fatalf("neighbor count = %d", count)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	g := graph.Grid(4, 4)
	snap := Snapshot(NewStatic(g))
	if snap.N() != g.N() || snap.M() != g.M() {
		t.Fatalf("snapshot differs: %v vs %v", snap, g)
	}
	for _, e := range g.Edges() {
		if !snap.HasEdge(e[0], e[1]) {
			t.Fatalf("snapshot missing edge %v", e)
		}
	}
}

func TestEdgeCount(t *testing.T) {
	g := graph.Complete(6)
	if EdgeCount(NewStatic(g)) != 15 {
		t.Fatal("EdgeCount wrong")
	}
}

func TestAverageDegreeOver(t *testing.T) {
	g := graph.Cycle(10)
	avg := AverageDegreeOver(NewStatic(g), 5)
	if avg != 2 {
		t.Fatalf("average degree = %v, want 2", avg)
	}
}

// flicker is a test Dynamic that alternates between a cycle and the empty
// graph each step.
type flicker struct {
	g  *graph.Graph
	on bool
}

func (f *flicker) N() int { return f.g.N() }
func (f *flicker) Step()  { f.on = !f.on }
func (f *flicker) ForEachNeighbor(i int, fn func(j int)) {
	if f.on {
		f.g.ForEachNeighbor(i, fn)
	}
}

func TestTraceCaptureAndReplay(t *testing.T) {
	src := &flicker{g: graph.Cycle(6), on: true}
	tr := Capture(src, 3) // snapshots: on, off, on, off
	if tr.Len() != 4 || tr.N() != 6 {
		t.Fatalf("trace shape: len=%d n=%d", tr.Len(), tr.N())
	}
	if len(tr.EdgesAt(0)) != 6 || len(tr.EdgesAt(1)) != 0 {
		t.Fatalf("captured edges wrong: %d, %d", len(tr.EdgesAt(0)), len(tr.EdgesAt(1)))
	}
	rep := tr.Replay()
	if EdgeCount(rep) != 6 {
		t.Fatal("replay snapshot 0 wrong")
	}
	rep.Step()
	if EdgeCount(rep) != 0 {
		t.Fatal("replay snapshot 1 wrong")
	}
	rep.Step()
	if EdgeCount(rep) != 6 {
		t.Fatal("replay snapshot 2 wrong")
	}
	// Stepping past the end freezes the final snapshot.
	rep.Step()
	rep.Step()
	rep.Step()
	if EdgeCount(rep) != 0 {
		t.Fatal("replay should freeze at last snapshot")
	}
}

func TestTraceSerializationRoundTrip(t *testing.T) {
	src := &flicker{g: graph.Grid(3, 3), on: true}
	tr := Capture(src, 5)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != tr.N() || got.Len() != tr.Len() {
		t.Fatalf("round trip shape mismatch: %d/%d vs %d/%d", got.N(), got.Len(), tr.N(), tr.Len())
	}
	for s := 0; s < tr.Len(); s++ {
		a, b := tr.EdgesAt(s), got.EdgesAt(s)
		if len(a) != len(b) {
			t.Fatalf("step %d edge count mismatch", s)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("step %d edge %d mismatch: %v vs %v", s, i, a[i], b[i])
			}
		}
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadTrace(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestReadTraceTruncatedStreams(t *testing.T) {
	// Failure injection: truncate a valid stream at every prefix length;
	// the reader must error, never panic or return a corrupt trace.
	src := &flicker{g: graph.Grid(3, 3), on: true}
	tr := Capture(src, 4)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut += 3 {
		if _, err := ReadTrace(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncated stream of %d/%d bytes accepted", cut, len(full))
		}
	}
}

func TestReadTraceRejectsCorruptEdges(t *testing.T) {
	// Flip the node count down so recorded edges fall out of range.
	src := &flicker{g: graph.Cycle(8), on: true}
	tr := Capture(src, 1)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[4] = 2 // node count little-endian: 8 -> 2
	if _, err := ReadTrace(bytes.NewReader(raw)); err == nil {
		t.Fatal("out-of-range edges accepted")
	}
}

func TestSubsampleLimitsDegree(t *testing.T) {
	g := graph.Complete(20)
	r := rng.New(7)
	sub := NewSubsample(NewStatic(g), 3, r)
	for i := 0; i < 20; i++ {
		count := 0
		sub.ForEachNeighbor(i, func(j int) {
			if j == i {
				t.Fatal("self neighbor")
			}
			count++
		})
		if count != 3 {
			t.Fatalf("node %d sees %d neighbors, want 3", i, count)
		}
	}
}

func TestSubsampleStableWithinStep(t *testing.T) {
	g := graph.Complete(10)
	sub := NewSubsample(NewStatic(g), 2, rng.New(11))
	grab := func() []int {
		var out []int
		sub.ForEachNeighbor(0, func(j int) { out = append(out, j) })
		return out
	}
	a := grab()
	b := grab()
	if len(a) != len(b) {
		t.Fatal("subset changed within a step")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("subset changed within a step")
		}
	}
	sub.Step()
	// After many steps, the subset should change at least once.
	changed := false
	for trial := 0; trial < 20 && !changed; trial++ {
		c := grab()
		for i := range c {
			if i >= len(a) || c[i] != a[i] {
				changed = true
				break
			}
		}
		sub.Step()
	}
	if !changed {
		t.Fatal("subset never resampled across steps")
	}
}

func TestSubsampleKeepsAllWhenFewNeighbors(t *testing.T) {
	g := graph.Path(3) // middle node has 2 neighbors
	sub := NewSubsample(NewStatic(g), 5, rng.New(13))
	count := 0
	sub.ForEachNeighbor(1, func(j int) { count++ })
	if count != 2 {
		t.Fatalf("should keep all %d neighbors, saw %d", 2, count)
	}
}

func TestSubsamplePanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k=0 did not panic")
		}
	}()
	NewSubsample(NewStatic(graph.Cycle(3)), 0, rng.New(1))
}

// TestDeltifierRejectsArcBatcher pins the entry adapter's guard: a
// directed virtual graph has no undirected snapshot, so wrapping one —
// fresh or through Reset — is a programming error, not a silent
// symmetrisation of its arcs.
func TestDeltifierRejectsArcBatcher(t *testing.T) {
	arcs := NewSubsample(NewStatic(graph.Cycle(5)), 1, rng.New(1))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewDeltifier(ArcBatcher) did not panic")
			}
		}()
		NewDeltifier(arcs)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Deltifier.Reset(ArcBatcher) did not panic")
			}
		}()
		NewDeltifier(NewStatic(graph.Cycle(5))).Reset(arcs)
	}()
}

func TestTracePanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewTrace(0) did not panic")
			}
		}()
		NewTrace(0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("mismatched Record did not panic")
			}
		}()
		tr := NewTrace(3)
		tr.Record(NewStatic(graph.Cycle(5)))
	}()
}
