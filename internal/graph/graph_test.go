package graph

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestBuilderDedup(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	b.AddEdge(0, 1)
	b.AddEdge(2, 2) // self loop ignored
	g := b.Build()
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge lookup failed")
	}
	if g.HasEdge(2, 2) || g.HasEdge(0, 2) {
		t.Fatal("phantom edge")
	}
}

func TestBuilderPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewBuilder(0) did not panic")
			}
		}()
		NewBuilder(0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range AddEdge did not panic")
			}
		}()
		NewBuilder(2).AddEdge(0, 5)
	}()
}

func TestAdjacencySortedAndSymmetric(t *testing.T) {
	r := rng.New(5)
	g := Gnp(60, 0.1, r)
	for v := 0; v < g.N(); v++ {
		adj := g.Neighbors(v)
		for i := 1; i < len(adj); i++ {
			if adj[i-1] >= adj[i] {
				t.Fatalf("adjacency of %d not strictly sorted", v)
			}
		}
		for _, u := range adj {
			if !g.HasEdge(int(u), v) {
				t.Fatalf("asymmetric edge %d-%d", v, u)
			}
		}
	}
}

func TestGridStructure(t *testing.T) {
	g := Grid(3, 4)
	if g.N() != 12 {
		t.Fatalf("N = %d", g.N())
	}
	// Edges: 3*3 horizontal + 2*4 vertical = 9 + 8 = 17.
	if g.M() != 17 {
		t.Fatalf("M = %d, want 17", g.M())
	}
	// Corner has degree 2, center has degree 4.
	if g.Degree(0) != 2 {
		t.Fatalf("corner degree = %d", g.Degree(0))
	}
	if g.Degree(1*4+1) != 4 {
		t.Fatalf("interior degree = %d", g.Degree(5))
	}
	if !g.IsConnected() {
		t.Fatal("grid should be connected")
	}
}

func TestGridDiameter(t *testing.T) {
	g := Grid(4, 7)
	if d := g.Diameter(); d != 3+6 {
		t.Fatalf("diameter = %d, want 9", d)
	}
}

func TestTorusRegular(t *testing.T) {
	g := Torus(4, 5)
	s := g.Degrees()
	if s.Min != 4 || s.Max != 4 {
		t.Fatalf("torus degrees = %+v, want all 4", s)
	}
	if g.M() != 2*4*5 {
		t.Fatalf("torus M = %d, want 40", g.M())
	}
	if g.DegreeRegularity() != 1 {
		t.Fatal("torus should be 1-regular in the δ sense")
	}
}

func TestKAugmentedGridK1IsGrid(t *testing.T) {
	a := KAugmentedGrid(5, 5, 1)
	b := Grid(5, 5)
	if a.M() != b.M() || a.N() != b.N() {
		t.Fatalf("k=1 augmented grid differs from grid: %v vs %v", a, b)
	}
}

func TestKAugmentedGridEdges(t *testing.T) {
	g := KAugmentedGrid(5, 5, 2)
	// (2,2) connects to all cells at Manhattan distance 1 or 2: 4 + 8 = 12.
	center := 2*5 + 2
	if g.Degree(center) != 12 {
		t.Fatalf("center degree = %d, want 12", g.Degree(center))
	}
	// Corner (0,0): (0,1),(1,0),(0,2),(2,0),(1,1) = 5 neighbors.
	if g.Degree(0) != 5 {
		t.Fatalf("corner degree = %d, want 5", g.Degree(0))
	}
	// Diameter shrinks roughly by factor k.
	if d := g.Diameter(); d != 4 {
		t.Fatalf("diameter = %d, want 4", d)
	}
}

func TestKAugmentedTorusRegular(t *testing.T) {
	g := KAugmentedTorus(6, 6, 2)
	s := g.Degrees()
	// Toroidal Manhattan ball of radius 2 minus the center: 4 + 8 = 12.
	if s.Min != 12 || s.Max != 12 {
		t.Fatalf("augmented torus degrees = %+v, want all 12", s)
	}
	if g.DegreeRegularity() != 1 {
		t.Fatal("torus must be 1-regular in the δ sense")
	}
	if !g.IsConnected() {
		t.Fatal("augmented torus must be connected")
	}
}

func TestKAugmentedTorusK1IsTorus(t *testing.T) {
	a := KAugmentedTorus(5, 4, 1)
	b := Torus(5, 4)
	if a.M() != b.M() || a.N() != b.N() {
		t.Fatalf("k=1 augmented torus differs from torus: %v vs %v", a, b)
	}
	for _, e := range b.Edges() {
		if !a.HasEdge(e[0], e[1]) {
			t.Fatalf("missing torus edge %v", e)
		}
	}
}

func TestKAugmentedTorusDiameterShrinks(t *testing.T) {
	d1 := KAugmentedTorus(8, 8, 1).Diameter()
	d2 := KAugmentedTorus(8, 8, 2).Diameter()
	if d2*2 != d1 && d2 >= d1 {
		t.Fatalf("augmentation should shrink diameter: %d -> %d", d1, d2)
	}
}

func TestKAugmentedTorusPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k=0 did not panic")
		}
	}()
	KAugmentedTorus(3, 3, 0)
}

func TestKAugmentedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k=0 did not panic")
		}
	}()
	KAugmentedGrid(3, 3, 0)
}

func TestPathCycle(t *testing.T) {
	p := Path(5)
	if p.M() != 4 || p.Diameter() != 4 {
		t.Fatalf("path wrong: m=%d d=%d", p.M(), p.Diameter())
	}
	c := Cycle(6)
	if c.M() != 6 || c.Diameter() != 3 {
		t.Fatalf("cycle wrong: m=%d d=%d", c.M(), c.Diameter())
	}
	tiny := Cycle(2)
	if tiny.M() != 1 {
		t.Fatalf("2-cycle should degenerate to an edge, m=%d", tiny.M())
	}
}

func TestCompleteStar(t *testing.T) {
	k := Complete(6)
	if k.M() != 15 || k.Diameter() != 1 {
		t.Fatalf("complete wrong: %v", k)
	}
	s := Star(6)
	if s.M() != 5 || s.Degree(0) != 5 || s.Diameter() != 2 {
		t.Fatalf("star wrong: %v", s)
	}
	if s.DegreeRegularity() != 5 {
		t.Fatalf("star regularity = %v", s.DegreeRegularity())
	}
}

func TestGnpDensity(t *testing.T) {
	r := rng.New(7)
	g := Gnp(300, 0.05, r)
	d := g.EdgeDensity()
	if d < 0.04 || d > 0.06 {
		t.Fatalf("G(n,p) density = %v, want ~0.05", d)
	}
}

func TestGnpExtremes(t *testing.T) {
	r := rng.New(9)
	if g := Gnp(10, 0, r); g.M() != 0 {
		t.Fatal("G(n,0) should be empty")
	}
	if g := Gnp(10, 1, r); g.M() != 45 {
		t.Fatal("G(n,1) should be complete")
	}
}

func TestEdgeFromRankBijection(t *testing.T) {
	n := 10
	seen := map[[2]int]bool{}
	total := int64(n) * int64(n-1) / 2
	for r := int64(0); r < total; r++ {
		u, v := edgeFromRank(r, n)
		if u < 0 || v <= u || v >= n {
			t.Fatalf("rank %d -> invalid pair (%d,%d)", r, u, v)
		}
		p := [2]int{u, v}
		if seen[p] {
			t.Fatalf("rank %d -> duplicate pair (%d,%d)", r, u, v)
		}
		seen[p] = true
	}
	if int64(len(seen)) != total {
		t.Fatalf("ranks cover %d pairs, want %d", len(seen), total)
	}
}

func TestBFSDistances(t *testing.T) {
	g := Path(5)
	d := g.BFS(0)
	for i, want := range []int{0, 1, 2, 3, 4} {
		if d[i] != want {
			t.Fatalf("BFS dist[%d] = %d, want %d", i, d[i], want)
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	g := b.Build()
	d := g.BFS(0)
	if d[2] != -1 || d[3] != -1 {
		t.Fatal("unreachable nodes should have distance -1")
	}
	if g.Eccentricity(0) != -1 {
		t.Fatal("eccentricity on disconnected graph should be -1")
	}
	if g.Diameter() != -1 {
		t.Fatal("diameter on disconnected graph should be -1")
	}
}

func TestBFSSymmetryProperty(t *testing.T) {
	r := rng.New(11)
	f := func(seed uint16) bool {
		g := Gnp(30, 0.15, rng.New(uint64(seed)))
		u := r.Intn(30)
		v := r.Intn(30)
		return g.BFS(u)[v] == g.BFS(v)[u]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestShortestPathValid(t *testing.T) {
	g := Grid(5, 5)
	path := g.ShortestPath(0, 24)
	if len(path) != g.BFS(0)[24]+1 {
		t.Fatalf("path length %d, want %d", len(path)-1, g.BFS(0)[24])
	}
	if path[0] != 0 || path[len(path)-1] != 24 {
		t.Fatal("path endpoints wrong")
	}
	for i := 1; i < len(path); i++ {
		if !g.HasEdge(path[i-1], path[i]) {
			t.Fatalf("path step %d-%d not an edge", path[i-1], path[i])
		}
	}
}

func TestShortestPathTrivialAndMissing(t *testing.T) {
	g := Path(3)
	if p := g.ShortestPath(1, 1); len(p) != 1 || p[0] != 1 {
		t.Fatal("self path wrong")
	}
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	disc := b.Build()
	if disc.ShortestPath(0, 3) != nil {
		t.Fatal("path to unreachable vertex should be nil")
	}
}

func TestComponents(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.Build()
	ids, count := g.Components()
	if count != 4 {
		t.Fatalf("count = %d, want 4", count)
	}
	if ids[0] != ids[1] || ids[2] != ids[3] || ids[0] == ids[2] {
		t.Fatalf("component ids wrong: %v", ids)
	}
}

func TestDegreeStatsAndDensity(t *testing.T) {
	g := Star(5)
	s := g.Degrees()
	if s.Min != 1 || s.Max != 4 || s.Mean != 8.0/5 {
		t.Fatalf("degree stats wrong: %+v", s)
	}
	k := Complete(5)
	if k.EdgeDensity() != 1 {
		t.Fatal("complete density should be 1")
	}
}

func TestRegularityIsolatedVertex(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	g := b.Build()
	if g.DegreeRegularity() <= float64(g.Degrees().Max) {
		t.Fatal("isolated vertex should blow up regularity")
	}
}

func TestEdgesListing(t *testing.T) {
	g := Path(4)
	es := g.Edges()
	if len(es) != 3 {
		t.Fatalf("edges = %v", es)
	}
	for _, e := range es {
		if e[0] >= e[1] {
			t.Fatalf("edge not normalized: %v", e)
		}
	}
}

func BenchmarkBFSGrid(b *testing.B) {
	g := Grid(100, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BFS(i % g.N())
	}
}

func BenchmarkGnpBuild(b *testing.B) {
	r := rng.New(1)
	for i := 0; i < b.N; i++ {
		Gnp(1000, 0.01, r)
	}
}
