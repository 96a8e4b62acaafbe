package mobility

import (
	"slices"

	"repro/internal/dyngraph"
	"repro/internal/geometry"
)

// geomDelta is the shared O(moved × local density) churn engine behind the
// native dyngraph.DeltaBatcher implementations of the continuous mobility
// models (Waypoint, Direction, RegionWaypoint). An edge can only flip when
// an endpoint moved, so each step compares the old and new within-radius
// sets of just the moved nodes against the 3×3 cell neighborhood instead of
// diffing full snapshots (the Deltifier's O(m log m) sort-merge):
//
//  1. the model stages every node's new position into next (writing
//     next[i] == pos[i] for nodes that stay put), preserving its exact RNG
//     draw order;
//  2. pass A, against the still-old cell list: for every moved i, each old
//     neighbor j (old distance ≤ R) whose new distance exceeds R is a died
//     edge;
//  3. the moves are applied — pos, prev, and the cell list's incremental
//     Move, in ascending id order, which fixes every cell's member order —
//     touching O(moved) index state;
//  4. pass B, against the updated cell list: for every moved i, each new
//     neighbor j (new distance ≤ R) whose old distance exceeded R is a
//     born edge.
//
// Each pass runs its radius queries in row-major order of the query
// cells, counting-sorted per pass, so consecutive queries read adjacent
// cell-list segments. A query carries the node's old and new position, and
// the cell list reports each candidate with its stored position, which is
// the candidate's position on both sides of the step unless it moved too;
// only moved candidates are looked up by id (next in pass A, prev in pass
// B). The cell order permutes the born and died batches within themselves,
// which the DeltaBatcher contract leaves unspecified; the trajectory and
// the cell list do not depend on it.
//
// Pairs where both endpoints moved are seen from both sides; the passes
// dedupe them by skipping the candidate j when movedF[j] && j < i (the
// pair is classified from the smaller index, whatever the query order).
// Born requires an old distance > R and died an old distance ≤ R, so the
// batches are disjoint, and both passes run entirely before/after the
// apply step, so each pass sees one consistent configuration. All buffers
// persist across steps: warm steps allocate nothing.
type geomDelta struct {
	next   []geometry.Point  // staged post-step positions, all nodes
	prev   []geometry.Point  // pre-step positions, all nodes
	movedF []bool            // whether each node moved this step
	moves  []move            // this step's moves, in the current pass's cell order
	cell   []int32           // sortMoves scratch: each mover's query cell
	counts []int32           // sortMoves scratch: bucket offsets
	near   []geometry.Member // cell-query scratch
	born   []dyngraph.Edge
	died   []dyngraph.Edge
	// stepped gates AppendDeltas: before the first Step the batches are
	// empty by the DeltaBatcher contract.
	stepped bool
}

// move is one moved node's radius query: the position it is queried at,
// that position's cell, and the node's position on the other side of the
// step.
type move struct {
	at, other geometry.Point
	cell, i   int32
}

// stage sizes the buffers for n nodes and returns the next-position buffer
// the model's step loop writes into. Nodes that do not move must be staged
// at their current position. The move list is sized for every node at
// once, rather than grown to the step's mover count, so the steps of a
// flood leave no outgrown buffers behind for the collector.
func (g *geomDelta) stage(n int) []geometry.Point {
	if cap(g.next) < n {
		g.next = make([]geometry.Point, n)
		g.prev = make([]geometry.Point, n)
		g.movedF = make([]bool, n)
		g.moves = make([]move, 0, n)
		g.cell = make([]int32, n)
	}
	return g.next[:n]
}

// commit classifies the staged step's churn into born/died and applies the
// moves to pos and cells. r2 is the squared connection radius (equal to the
// cell list's query radius).
func (g *geomDelta) commit(pos []geometry.Point, cells *geometry.CellList, r2 float64) {
	next := g.next[:len(pos)]
	prev := g.prev[:len(pos)]
	movedF := g.movedF[:len(pos)]
	for i, p := range pos {
		movedF[i] = next[i] != p
		prev[i] = p
	}
	// Pass A (died): old neighbors of each moved node, old configuration.
	g.died = g.scan(cells, prev, next, r2, g.died[:0])
	// Apply: positions and incremental cell maintenance, in ascending id
	// order, O(moved) index work.
	for i, moved := range movedF {
		if moved {
			pos[i] = next[i]
			cells.Move(i, next[i])
		}
	}
	// Pass B (born): new neighbors of each moved node, new configuration.
	g.born = g.scan(cells, next, prev, r2, g.born[:0])
	for _, mv := range g.moves {
		movedF[mv.i] = false
	}
	g.stepped = true
}

// scan runs one pass against the cell list's current configuration, whose
// positions are at: for every moved node i, each candidate j within R of
// at[i] is appended to out as {i, j} if other[i] and other[j], the two
// positions on the other side of the step, are more than R apart. An
// unmoved candidate's other-side position is its stored one.
func (g *geomDelta) scan(cells *geometry.CellList, at, other []geometry.Point, r2 float64, out []dyngraph.Edge) []dyngraph.Edge {
	movedF := g.movedF[:len(at)]
	for _, mv := range g.sortMoves(cells, at, other) {
		g.near = cells.AppendNear(mv.at, mv.cell, mv.i, g.near[:0])
		for _, c := range g.near {
			otherJ := c.P
			if movedF[c.ID] {
				if c.ID < mv.i {
					continue
				}
				otherJ = other[c.ID]
			}
			if geometry.Dist2(mv.other, otherJ) > r2 {
				out = append(out, orderEdge(mv.i, c.ID))
			}
		}
	}
	return out
}

// sortMoves lists the step's moved nodes (movedF) into g.moves as
// {at[i], other[i], CellOf(at[i]), i}, counting-sorted into row-major
// order of that cell; the sort is stable, so moves sharing a cell stay in
// id order. A grid with more cells than nodes is bucketed by runs of
// 2^shift consecutive cells, which keeps the sort O(n) per step.
func (g *geomDelta) sortMoves(cells *geometry.CellList, at, other []geometry.Point) []move {
	movedF := g.movedF[:len(at)]
	shift := 0
	for cells.NumCells()>>shift > max(len(at), 1) {
		shift++
	}
	buckets := (cells.NumCells()-1)>>shift + 1
	g.counts = slices.Grow(g.counts[:0], buckets+1)[:buckets+1]
	clear(g.counts)
	for i, moved := range movedF {
		if moved {
			g.cell[i] = cells.CellOf(at[i])
			g.counts[g.cell[i]>>shift+1]++
		}
	}
	for b := 1; b <= buckets; b++ {
		g.counts[b] += g.counts[b-1]
	}
	m := int(g.counts[buckets])
	g.moves = g.moves[:m]
	for i, moved := range movedF {
		if moved {
			k := g.cell[i] >> shift
			g.moves[g.counts[k]] = move{at: at[i], other: other[i], cell: g.cell[i], i: int32(i)}
			g.counts[k]++
		}
	}
	return g.moves
}

// appendDeltas serves the retained batches; idempotent between steps.
func (g *geomDelta) appendDeltas(born, died []dyngraph.Edge) (b, d []dyngraph.Edge) {
	if !g.stepped {
		return born, died
	}
	return append(born, g.born...), append(died, g.died...)
}

// movedLastStep reports how many nodes changed position in the most recent
// step (0 before the first step).
func (g *geomDelta) movedLastStep() int { return len(g.moves) }

func orderEdge(i, j int32) dyngraph.Edge {
	if i < j {
		return dyngraph.Edge{U: i, V: j}
	}
	return dyngraph.Edge{U: j, V: i}
}

// AppendDeltas implements dyngraph.DeltaBatcher.
func (w *Waypoint) AppendDeltas(born, died []dyngraph.Edge) (b, d []dyngraph.Edge) {
	return w.delta.appendDeltas(born, died)
}

// MovedLastStep implements dyngraph.MoveReporter.
func (w *Waypoint) MovedLastStep() int { return w.delta.movedLastStep() }

// AppendDeltas implements dyngraph.DeltaBatcher.
func (d *Direction) AppendDeltas(born, died []dyngraph.Edge) (b, dd []dyngraph.Edge) {
	return d.delta.appendDeltas(born, died)
}

// MovedLastStep implements dyngraph.MoveReporter.
func (d *Direction) MovedLastStep() int { return d.delta.movedLastStep() }

// AppendDeltas implements dyngraph.DeltaBatcher.
func (w *RegionWaypoint) AppendDeltas(born, died []dyngraph.Edge) (b, d []dyngraph.Edge) {
	return w.delta.appendDeltas(born, died)
}

// MovedLastStep implements dyngraph.MoveReporter.
func (w *RegionWaypoint) MovedLastStep() int { return w.delta.movedLastStep() }
