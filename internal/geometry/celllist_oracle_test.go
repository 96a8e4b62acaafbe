package geometry

import (
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
)

// sliceCellList is the cell list before the member arena: one []int32
// member list per cell and positions gathered by id from a point array.
// It is the oracle for member order: CellList must report every query's
// elements in exactly the order this implementation does, because pull
// and push–pull draw from that order on waypoint models.
type sliceCellList struct {
	rect    Rect
	r       float64
	cols    int
	rows    int
	members [][]int32
	slot    []int32
	cell    []int32
	pts     []Point
}

func newSliceCellList(rect Rect, r float64, pts []Point) *sliceCellList {
	c := &sliceCellList{
		rect: rect,
		r:    r,
		cols: max(1, int(math.Ceil(rect.W()/r))),
		rows: max(1, int(math.Ceil(rect.H()/r))),
		slot: make([]int32, len(pts)),
		cell: make([]int32, len(pts)),
		pts:  make([]Point, len(pts)),
	}
	c.members = make([][]int32, c.cols*c.rows)
	c.Rebuild(pts)
	return c
}

func (c *sliceCellList) Rebuild(pts []Point) {
	copy(c.pts, pts)
	for i := range c.members {
		c.members[i] = c.members[i][:0]
	}
	for i, p := range c.pts {
		id := c.cellOf(p)
		c.cell[i] = id
		c.slot[i] = int32(len(c.members[id]))
		c.members[id] = append(c.members[id], int32(i))
	}
}

func (c *sliceCellList) Move(i int, p Point) {
	c.pts[i] = p
	old := c.cell[i]
	id := c.cellOf(p)
	if id == old {
		return
	}
	m := c.members[old]
	k := c.slot[i]
	last := int32(len(m) - 1)
	moved := m[last]
	m[k] = moved
	c.slot[moved] = k
	c.members[old] = m[:last]
	c.cell[i] = id
	c.slot[i] = int32(len(c.members[id]))
	c.members[id] = append(c.members[id], int32(i))
}

func (c *sliceCellList) cellOf(p Point) int32 {
	p = c.rect.Clamp(p)
	col := min(int((p.X-c.rect.X0)/c.r), c.cols-1)
	row := min(int((p.Y-c.rect.Y0)/c.r), c.rows-1)
	return int32(row*c.cols + col)
}

func (c *sliceCellList) ForEachWithin(i int, fn func(j int)) {
	p := c.pts[i]
	id := int(c.cell[i])
	row, col := id/c.cols, id%c.cols
	r2 := c.r * c.r
	for dr := -1; dr <= 1; dr++ {
		nr := row + dr
		if nr < 0 || nr >= c.rows {
			continue
		}
		for dc := -1; dc <= 1; dc++ {
			nc := col + dc
			if nc < 0 || nc >= c.cols {
				continue
			}
			for _, j := range c.members[nr*c.cols+nc] {
				if int(j) != i && Dist2(p, c.pts[j]) <= r2 {
					fn(int(j))
				}
			}
		}
	}
}

func (c *sliceCellList) AppendWithin(i int, dst []int32) []int32 {
	c.ForEachWithin(i, func(j int) { dst = append(dst, int32(j)) })
	return dst
}

func (c *sliceCellList) AppendPairsWithin(dst [][2]int32) [][2]int32 {
	r2 := c.r * c.r
	stencil := [4][2]int{{0, 1}, {1, -1}, {1, 0}, {1, 1}}
	for row := 0; row < c.rows; row++ {
		for col := 0; col < c.cols; col++ {
			m := c.members[row*c.cols+col]
			for a, i := range m {
				pi := c.pts[i]
				for _, j := range m[a+1:] {
					if Dist2(pi, c.pts[j]) <= r2 {
						dst = append(dst, orderPair(i, j))
					}
				}
				for _, off := range stencil {
					nr, nc := row+off[0], col+off[1]
					if nr >= c.rows || nc < 0 || nc >= c.cols {
						continue
					}
					for _, j := range c.members[nr*c.cols+nc] {
						if Dist2(pi, c.pts[j]) <= r2 {
							dst = append(dst, orderPair(i, j))
						}
					}
				}
			}
		}
	}
	return dst
}

// arenaBase returns the arena's backing array, which every compaction
// swaps for the spare.
func arenaBase(c *CellList) *Member { return &c.arena[:1][0] }

// sameOrder asserts that the arena index and the oracle answer every query
// with the same elements in the same order, unsorted: AppendWithin,
// ForEachWithin, AppendNear at each point's own position, and
// AppendPairsWithin.
func sameOrder(t *testing.T, tag string, c *CellList, o *sliceCellList) {
	t.Helper()
	var got, want, each []int32
	var near []Member
	for i := range o.pts {
		if c.Position(i) != o.pts[i] {
			t.Fatalf("%s: point %d stored at %v, oracle has %v", tag, i, c.Position(i), o.pts[i])
		}
		got = c.AppendWithin(i, got[:0])
		want = o.AppendWithin(i, want[:0])
		if !slices.Equal(got, want) {
			t.Fatalf("%s: AppendWithin(%d) = %v, oracle %v", tag, i, got, want)
		}
		each = each[:0]
		c.ForEachWithin(i, func(j int) { each = append(each, int32(j)) })
		if !slices.Equal(each, want) {
			t.Fatalf("%s: ForEachWithin(%d) = %v, oracle %v", tag, i, each, want)
		}
		near = c.AppendNear(o.pts[i], c.CellOf(o.pts[i]), int32(i), near[:0])
		if len(near) != len(want) {
			t.Fatalf("%s: AppendNear(%d) has %d members, oracle %d", tag, i, len(near), len(want))
		}
		for k, m := range near {
			if m.ID != want[k] || m.P != o.pts[m.ID] {
				t.Fatalf("%s: AppendNear(%d)[%d] = %+v, oracle id %d at %v", tag, i, k, m, want[k], o.pts[want[k]])
			}
		}
	}
	gp := c.AppendPairsWithin(nil)
	wp := o.AppendPairsWithin(nil)
	if !slices.Equal(gp, wp) {
		t.Fatalf("%s: AppendPairsWithin differs: %d pairs, oracle %d", tag, len(gp), len(wp))
	}
}

// TestCellListMatchesSliceOracleOrder drives the arena index and the
// slice oracle through the same random Move and Rebuild streams and
// checks, after every batch, that every query reports the same elements
// in the same order. Herding moves pile points into a few cells, so full
// segments relocate to the arena tail and the tail runs out, forcing
// compactions; the test fails if a stream exercised neither.
func TestCellListMatchesSliceOracleOrder(t *testing.T) {
	r := rng.New(41)
	const (
		n      = 150
		side   = 12.0
		radius = 1.0
		rounds = 120
	)
	rect := Square(side)
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{r.Float64() * side, r.Float64() * side}
	}
	c := NewCellList(rect, radius, pts)
	o := newSliceCellList(rect, radius, pts)
	relocations, compactions := 0, 0
	for round := 0; round < rounds; round++ {
		if round%40 == 39 {
			for i := range pts {
				pts[i] = Point{r.Float64() * side, r.Float64() * side}
			}
			c.Rebuild(pts)
			o.Rebuild(pts)
			sameOrder(t, "rebuild", c, o)
			continue
		}
		// A herd centre for this round: a quarter of the moves land in
		// its cell.
		herd := Point{r.Float64() * side, r.Float64() * side}
		moves := 1 + r.Intn(n)
		for k := 0; k < moves; k++ {
			i := r.Intn(n)
			var p Point
			switch r.Intn(4) {
			case 0:
				p = Point{herd.X + r.Range(-0.4, 0.4), herd.Y + r.Range(-0.4, 0.4)}
			case 1:
				p = Point{pts[i].X + r.Range(-0.3, 0.3), pts[i].Y + r.Range(-0.3, 0.3)}
			case 2:
				p = Point{r.Float64() * side, r.Float64() * side}
			default: // out of the rect: clamped into a border cell
				p = Point{pts[i].X + r.Range(-side, side), pts[i].Y + r.Range(-side, side)}
			}
			base, tail := arenaBase(c), len(c.arena)
			pts[i] = p
			c.Move(i, p)
			o.Move(i, p)
			if arenaBase(c) != base {
				compactions++
			} else if len(c.arena) > tail {
				relocations++
			}
		}
		sameOrder(t, "move stream", c, o)
	}
	if relocations == 0 || compactions == 0 {
		t.Fatalf("stream did not exercise the arena: %d relocations, %d compactions", relocations, compactions)
	}
}

// TestCellListWarmMoveZeroAlloc pins that Move allocates nothing once the
// arena has reached its high-water size, including the relocations and
// compactions a herding stream keeps causing.
func TestCellListWarmMoveZeroAlloc(t *testing.T) {
	const (
		n    = 400
		side = 20.0
	)
	r := rng.New(8)
	spread := make([]Point, n)
	for i := range spread {
		spread[i] = Point{r.Float64() * side, r.Float64() * side}
	}
	c := NewCellList(Square(side), 1, spread)
	// A cycle herds every point into one of four cells, then spreads them
	// back. Cycles alternate between two groups of herd cells, so each
	// cycle's herd cells start small again (the previous compaction reset
	// them while empty): their segments overflow and relocate, repeatedly,
	// until the tail runs out and the arena compacts.
	herds := [2][4]Point{
		{{2.5, 2.5}, {17.5, 2.5}, {2.5, 17.5}, {17.5, 17.5}},
		{{10.5, 4.5}, {4.5, 10.5}, {15.5, 10.5}, {10.5, 15.5}},
	}
	cycles, compactions := 0, 0
	cycle := func() {
		group := &herds[cycles%2]
		cycles++
		for i := range spread {
			base := arenaBase(c)
			c.Move(i, group[i%4])
			if arenaBase(c) != base {
				compactions++
			}
		}
		for i, p := range spread {
			c.Move(i, p)
		}
	}
	for k := 0; k < 6; k++ {
		cycle()
	}
	if compactions == 0 || c.spare == nil {
		t.Fatal("herding cycles never compacted the arena")
	}
	compactions = 0
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("%.1f allocs per warm Move cycle, want 0", allocs)
	}
	if compactions == 0 {
		t.Error("measured cycles did not compact; the pin does not cover compaction")
	}
}
