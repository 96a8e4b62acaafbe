package geometry

import (
	"math"
	"slices"
)

// CellList is a uniform-grid spatial index over a fixed set of points in a
// rectangle, supporting neighbor queries within a radius r in O(1) expected
// time per reported neighbor. It maintains a persistent node→cell
// assignment with per-cell member lists, so a step that moves k points
// costs O(k) index maintenance via Move instead of the O(n) Rebuild the
// batch path pays. Rebuild and warm Moves reuse all storage.
//
// The cell side equals the query radius, so a radius query only inspects the
// 3x3 block of cells around the query point.
//
// The member lists live in one arena of per-cell segments, like the
// dyngraph.Adjacency arena, and every entry stores the member's position
// next to its id: a query reads candidate positions in place, from a few
// contiguous segments, instead of gathering them by id from a point
// array. A full segment moves to the arena tail with more room (its old
// slots become a hole), and when the tail runs out the live segments are
// compacted, in cell order, into a spare buffer the two swap with — so an
// index at its high-water size moves points without allocating.
//
// A cell's member order is fixed by the sequence of Rebuild and Move
// calls alone: Rebuild lists each cell's members in ascending id order,
// and Move swap-removes a point from its old cell and appends it to the
// new one. Relocation and compaction copy segments whole, so they never
// reorder a cell. The query methods report candidates cell by cell and,
// within a cell, in member order; callers that draw from neighbor lists
// (pull, push–pull) depend on that order.
type CellList struct {
	rect  Rect
	r     float64
	cols  int
	rows  int
	segs  []cellSeg  // per-cell segment headers into arena
	arena []Member   // member segments; arena[len:cap] is free tail space
	spare []Member   // compaction target, swapped with arena; len 0 between uses
	slot  []int32    // position of point i inside its cell's segment
	cell  []int32    // cell id per point
	pairs [][2]int32 // scratch for Pairs
}

// Member is one cell-list entry: an indexed point's position (as last
// passed to Rebuild or Move, unclamped) and its id.
type Member struct {
	P  Point
	ID int32
}

// cellSeg is one cell's member list: arena[off:off+len] holds the members
// and arena[off:off+cap] the slots reserved for them.
type cellSeg struct {
	off, len, cap int32
}

// MaxCells bounds the grid size and the arena length: cell ids and arena
// offsets are int32.
const MaxCells = math.MaxInt32

// GridCells returns the number of cells of a CellList over rect with
// query radius r > 0: ⌈W/r⌉·⌈H/r⌉, at least one per axis. NewCellList
// panics past MaxCells, so input validation checks it first.
func GridCells(rect Rect, r float64) float64 {
	return math.Max(1, math.Ceil(rect.W()/r)) * math.Max(1, math.Ceil(rect.H()/r))
}

// NewCellList builds an index over pts within rect for radius-r queries.
// It panics if r <= 0, the rectangle is degenerate, or the grid has more
// than MaxCells cells.
func NewCellList(rect Rect, r float64, pts []Point) *CellList {
	if !(r > 0) {
		panic("geometry: NewCellList needs r > 0")
	}
	if !(rect.W() > 0) || !(rect.H() > 0) {
		panic("geometry: NewCellList needs a non-degenerate rect")
	}
	if GridCells(rect, r) > MaxCells {
		panic("geometry: NewCellList grid exceeds MaxCells")
	}
	cols := max(1, int(math.Ceil(rect.W()/r)))
	rows := max(1, int(math.Ceil(rect.H()/r)))
	c := &CellList{
		rect: rect,
		r:    r,
		cols: cols,
		rows: rows,
		segs: make([]cellSeg, cols*rows),
		slot: make([]int32, len(pts)),
		cell: make([]int32, len(pts)),
	}
	c.Rebuild(pts)
	return c
}

// segCap is the room a segment of n members is laid out or relocated
// with: slack for a moving population's occupancy swings at half a slot
// per point plus one per cell, which keeps the arena small.
func segCap(n int32) int32 { return n + n/2 + 1 }

// Rebuild reindexes the (possibly moved) points from scratch. len(pts) must
// equal the original point count. Segments are laid out in cell order,
// each cell's members in ascending id order; a warm Rebuild allocates
// nothing.
func (c *CellList) Rebuild(pts []Point) {
	if len(pts) != len(c.cell) {
		panic("geometry: Rebuild with different point count")
	}
	for k := range c.segs {
		c.segs[k].len = 0
	}
	for i, p := range pts {
		id := c.CellOf(p)
		c.cell[i] = id
		c.segs[id].len++
	}
	total := c.liveSlots()
	if cap(c.arena) < total {
		c.arena = make([]Member, 0, arenaCap(total))
	}
	c.arena = c.arena[:0]
	for k := range c.segs {
		s := &c.segs[k]
		s.off = int32(len(c.arena))
		s.cap = segCap(s.len)
		s.len = 0
		c.arena = c.arena[:int(s.off)+int(s.cap)]
	}
	for i, p := range pts {
		s := &c.segs[c.cell[i]]
		c.slot[i] = s.len
		c.arena[s.off+s.len] = Member{P: p, ID: int32(i)}
		s.len++
	}
}

// liveSlots returns the arena length a cell-ordered layout of the current
// members takes: segCap(len) per cell.
func (c *CellList) liveSlots() int {
	total := 0
	for _, s := range c.segs {
		total += int(segCap(s.len))
	}
	return total
}

// arenaCap returns the arena capacity for live laid-out slots: an eighth
// more, as tail room for relocations, so each compaction buys room for
// O(live) relocated slots and compactions cost amortized O(1) per slot.
func arenaCap(live int) int {
	c := live + live/8 + 1
	if c > MaxCells {
		panic("geometry: CellList arena exceeds int32 offsets")
	}
	return c
}

// Move updates point i to position p, maintaining the index incrementally:
// a same-cell move only updates the stored position, and a cell transition
// swap-removes i from its old cell's member list and appends it to the new
// one — O(1) either way, amortized over segment relocations.
func (c *CellList) Move(i int, p Point) {
	old := c.cell[i]
	id := c.CellOf(p)
	if id == old {
		c.arena[c.segs[old].off+c.slot[i]].P = p
		return
	}
	// Swap-remove from the old cell.
	s := &c.segs[old]
	k := c.slot[i]
	s.len--
	last := c.arena[s.off+s.len]
	c.arena[s.off+k] = last
	c.slot[last.ID] = k
	// Append to the new cell.
	if c.segs[id].len == c.segs[id].cap {
		c.growSeg(id)
	}
	t := &c.segs[id]
	c.arena[t.off+t.len] = Member{P: p, ID: int32(i)}
	c.cell[i] = id
	c.slot[i] = t.len
	t.len++
}

// growSeg makes room for one more member in cell id's full segment: it
// moves the segment to the arena tail with segCap room, the vacated slots
// becoming a hole, or, when the tail is too short, compacts the arena,
// which leaves every segment room for one more.
func (c *CellList) growSeg(id int32) {
	s := c.segs[id]
	newCap := segCap(s.len)
	if len(c.arena)+int(newCap) > cap(c.arena) {
		c.compact()
		return
	}
	off := int32(len(c.arena))
	c.arena = c.arena[:len(c.arena)+int(newCap)]
	copy(c.arena[off:off+s.len], c.arena[s.off:s.off+s.len])
	c.segs[id] = cellSeg{off: off, len: s.len, cap: newCap}
}

// compact copies the live segments, in cell order and each with segCap
// room for its current length, into the spare buffer; the buffers then
// swap roles. Resetting
// the capacities squeezes out the holes and the slack of cells that have
// emptied since, so the arena tracks the current occupancy rather than
// every cell's historical peak. The spare is allocated, or grown, only
// when the layout plus its tail room outgrows it, so an index at its
// high-water size compacts without allocating. Every compaction also
// restores the cell-ordered layout that keeps a 3x3 query's segments
// adjacent in memory.
func (c *CellList) compact() {
	want := arenaCap(c.liveSlots())
	if cap(c.spare) < want {
		c.spare = make([]Member, 0, max(want, cap(c.arena)))
	}
	dst := c.spare[:0]
	for k := range c.segs {
		s := &c.segs[k]
		off := int32(len(dst))
		dst = append(dst, c.arena[s.off:s.off+s.len]...)
		s.off, s.cap = off, segCap(s.len)
		dst = dst[:int(off)+int(s.cap)]
	}
	c.spare = c.arena[:0]
	c.arena = dst
}

// members returns cell id's member segment.
func (c *CellList) members(id int) []Member {
	s := c.segs[id]
	return c.arena[s.off : s.off+s.len]
}

// Position returns the indexed position of point i.
func (c *CellList) Position(i int) Point {
	return c.arena[c.segs[c.cell[i]].off+c.slot[i]].P
}

// CellOf returns the id of the cell a point at p is indexed in: the cell
// of the rectangle's nearest point. Ids run row-major over the grid, from
// 0 to NumCells()-1, so radius queries issued in ascending CellOf order
// sweep the arena in layout order.
func (c *CellList) CellOf(p Point) int32 {
	col := gridIndex((p.X-c.rect.X0)/c.r, c.cols)
	row := gridIndex((p.Y-c.rect.Y0)/c.r, c.rows)
	return int32(row*c.cols + col)
}

// gridIndex returns ⌊x⌋ clamped into [0, n-1]: the index of a coordinate
// offset x, in cell sides, along an axis of n cells. Clamping the index
// rather than the coordinate gives the cell of the rectangle's nearest
// point without math.Min/Max calls on the hot path.
func gridIndex(x float64, n int) int {
	if !(x > 0) {
		return 0
	}
	if x >= float64(n) {
		return n - 1
	}
	return int(x)
}

// NumCells returns the number of grid cells.
func (c *CellList) NumCells() int { return len(c.segs) }

// block returns the row and column ranges of the 3x3 cell block around
// cell id, clipped to the grid.
func (c *CellList) block(id int) (r0, r1, c0, c1 int) {
	row, col := id/c.cols, id%c.cols
	return max(row-1, 0), min(row+1, c.rows-1), max(col-1, 0), min(col+1, c.cols-1)
}

// ForEachWithin calls fn(j) for every indexed point j != i whose distance to
// point i is at most the query radius, in AppendWithin order.
func (c *CellList) ForEachWithin(i int, fn func(j int)) {
	p := c.Position(i)
	r2 := c.r * c.r
	r0, r1, c0, c1 := c.block(int(c.cell[i]))
	for nr := r0; nr <= r1; nr++ {
		for nc := c0; nc <= c1; nc++ {
			for _, m := range c.members(nr*c.cols + nc) {
				if int(m.ID) != i && Dist2(p, m.P) <= r2 {
					fn(int(m.ID))
				}
			}
		}
	}
}

// AppendWithin appends every indexed point j != i within the query radius
// of point i to dst: the 3x3 block's cells in row-major order, each in
// member order.
func (c *CellList) AppendWithin(i int, dst []int32) []int32 {
	p := c.Position(i)
	r2 := c.r * c.r
	r0, r1, c0, c1 := c.block(int(c.cell[i]))
	for nr := r0; nr <= r1; nr++ {
		for nc := c0; nc <= c1; nc++ {
			for _, m := range c.members(nr*c.cols + nc) {
				if int(m.ID) != i && Dist2(p, m.P) <= r2 {
					dst = append(dst, m.ID)
				}
			}
		}
	}
	return dst
}

// AppendNear appends every indexed member other than self within the
// query radius of the point p, which need not be an indexed position, to
// dst with its stored position, in AppendWithin order over the 3x3 block
// around cell, which must be CellOf(p).
func (c *CellList) AppendNear(p Point, cell, self int32, dst []Member) []Member {
	r2 := c.r * c.r
	r0, r1, c0, c1 := c.block(int(cell))
	for nr := r0; nr <= r1; nr++ {
		for k := nr*c.cols + c0; k <= nr*c.cols+c1; k++ {
			s := c.segs[k]
			if s.len == 0 {
				continue
			}
			// Write every candidate and keep it by advancing n: a
			// compare-and-add the compiler emits without a branch, which
			// the close calls of a radius test would keep mispredicting.
			n := len(dst)
			dst = slices.Grow(dst, int(s.len))[:n+int(s.len)]
			for _, m := range c.arena[s.off : s.off+s.len] {
				if m.ID == self {
					continue
				}
				dst[n] = m
				n += within(Dist2(p, m.P), r2)
			}
			dst = dst[:n]
		}
	}
	return dst
}

// within returns 1 if d2 <= r2, else 0.
func within(d2, r2 float64) int {
	if d2 <= r2 {
		return 1
	}
	return 0
}

// AppendPairsWithin appends every unordered pair {i, j} of indexed points
// within the query radius to dst, normalized to i < j, each pair exactly
// once. It scans each cell against itself and a half stencil of its
// neighbors, so every candidate pair is distance-checked once — half the
// work of querying ForEachWithin from every point.
func (c *CellList) AppendPairsWithin(dst [][2]int32) [][2]int32 {
	r2 := c.r * c.r
	// Half stencil: E, SW, S, SE. Together with the same-cell pass this
	// covers each unordered cell pair once.
	stencil := [4][2]int{{0, 1}, {1, -1}, {1, 0}, {1, 1}}
	for row := 0; row < c.rows; row++ {
		for col := 0; col < c.cols; col++ {
			m := c.members(row*c.cols + col)
			for a, mi := range m {
				for _, mj := range m[a+1:] {
					if Dist2(mi.P, mj.P) <= r2 {
						dst = append(dst, orderPair(mi.ID, mj.ID))
					}
				}
				for _, off := range stencil {
					nr, nc := row+off[0], col+off[1]
					if nr >= c.rows || nc < 0 || nc >= c.cols {
						continue
					}
					for _, mj := range c.members(nr*c.cols + nc) {
						if Dist2(mi.P, mj.P) <= r2 {
							dst = append(dst, orderPair(mi.ID, mj.ID))
						}
					}
				}
			}
		}
	}
	return dst
}

// Pairs returns the current within-radius pairs via AppendPairsWithin into
// an internal scratch buffer reused across calls, so warm callers (the
// mobility batch views) never reallocate. The returned slice is
// invalidated by the next Pairs call and must not be retained or modified.
func (c *CellList) Pairs() [][2]int32 {
	c.pairs = c.AppendPairsWithin(c.pairs[:0])
	return c.pairs
}

func orderPair(i, j int32) [2]int32 {
	if i < j {
		return [2]int32{i, j}
	}
	return [2]int32{j, i}
}

// CountWithin returns the number of indexed points within the radius of
// point i, excluding i itself.
func (c *CellList) CountWithin(i int) int {
	n := 0
	c.ForEachWithin(i, func(int) { n++ })
	return n
}

// Len returns the number of indexed points.
func (c *CellList) Len() int { return len(c.cell) }
