// Package mobility implements the geometric mobility models of Section 4.1:
// the random waypoint over a square (continuous kinematics plus an exact
// discretized Markov chain for small grids), the classic random-walk model
// on a grid, and a random-direction model. It also provides the positional
// stationary density machinery of Corollary 4: empirical density histograms,
// the Bettstetter analytic waypoint density, and measurement of the
// uniformity constants δ and λ.
package mobility

import (
	"fmt"
	"math"

	"repro/internal/geometry"
	"repro/internal/rng"
)

// WaypointParams configures a random waypoint model over the square
// [0, L]²: each node repeatedly picks a uniform destination and a uniform
// speed in [VMin, VMax], travels to the destination in a straight line, and
// repeats. Two nodes are connected when within Euclidean distance R.
type WaypointParams struct {
	N    int     // number of nodes
	L    float64 // side of the square
	R    float64 // transmission radius
	VMin float64 // minimum speed (distance per time step)
	VMax float64 // maximum speed
	// Pause is the number of steps a node rests at each destination before
	// starting its next trip (the classic waypoint "pause time"). Pause-heavy
	// workloads move only a small fraction of nodes per step, which the
	// incremental cell list and native delta stream turn into O(moved)
	// dynamics. Pause = 0 reproduces the pause-free process exactly, draw
	// for draw.
	Pause int
}

// Validate checks the parameters. The paper assumes VMax = Θ(VMin); we only
// require 0 < VMin <= VMax. Every length and speed must be finite, and the
// radius-R cell grid over the square must fit geometry.MaxCells.
func (p WaypointParams) Validate() error {
	if p.N < 1 {
		return fmt.Errorf("mobility: need N >= 1, got %d", p.N)
	}
	if !positive(p.L) {
		return fmt.Errorf("mobility: need finite L > 0, got %v", p.L)
	}
	if !positive(p.R) {
		return fmt.Errorf("mobility: need finite R > 0, got %v", p.R)
	}
	if !positive(p.VMin) || !positive(p.VMax) || p.VMax < p.VMin {
		return fmt.Errorf("mobility: need finite 0 < VMin <= VMax, got [%v, %v]", p.VMin, p.VMax)
	}
	if p.Pause < 0 {
		return fmt.Errorf("mobility: need Pause >= 0, got %d", p.Pause)
	}
	return checkGrid(p.L, p.R)
}

// positive reports whether x is finite and > 0 (false for NaN).
func positive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// checkGrid rejects an L×L square whose radius-R cell grid has more cells
// than a geometry.CellList can index.
func checkGrid(L, R float64) error {
	if cells := geometry.GridCells(geometry.Square(L), R); cells > geometry.MaxCells {
		return fmt.Errorf("mobility: L/R = %v gives a %g-cell grid, more than %d", L/R, cells, geometry.MaxCells)
	}
	return nil
}

// MixingTimeEstimate returns the Θ(L/VMax) mixing-time scale of the
// waypoint chain quoted in Section 4.1 (from [1, 29]).
func (p WaypointParams) MixingTimeEstimate() float64 { return p.L / p.VMax }

// WaypointInit selects the initial distribution of a waypoint simulation.
type WaypointInit int

const (
	// InitUniform places nodes uniformly with a fresh trip each — the
	// standard (non-stationary) start; warm up before measuring.
	InitUniform WaypointInit = iota
	// InitSteadyState samples the exact steady-state trip distribution
	// (Camp–Navidi–Bauer / Le Boudec perfect simulation): trips weighted
	// by length, position uniform along the trip, speed weighted by 1/v.
	InitSteadyState
)

// Waypoint simulates the random waypoint model; it implements
// dyngraph.Dynamic.
type Waypoint struct {
	params WaypointParams
	r      *rng.RNG
	pos    []geometry.Point
	dest   []geometry.Point
	speed  []float64
	wait   []int32 // remaining pause steps per node (all zero when Pause == 0)
	cells  *geometry.CellList
	delta  geomDelta // incremental churn engine (native DeltaBatcher)
}

// NewWaypoint builds a waypoint simulation. It panics on invalid parameters
// (call Validate for error handling).
func NewWaypoint(params WaypointParams, init WaypointInit, r *rng.RNG) *Waypoint {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	w := &Waypoint{
		params: params,
		r:      r,
		pos:    make([]geometry.Point, params.N),
		dest:   make([]geometry.Point, params.N),
		speed:  make([]float64, params.N),
		wait:   make([]int32, params.N),
	}
	for i := range w.pos {
		switch init {
		case InitUniform:
			w.pos[i] = w.uniformPoint()
			w.dest[i] = w.uniformPoint()
			w.speed[i] = r.Range(params.VMin, params.VMax)
		case InitSteadyState:
			w.pos[i], w.dest[i], w.speed[i] = w.steadyStateTrip()
		default:
			panic("mobility: unknown WaypointInit")
		}
	}
	w.cells = geometry.NewCellList(geometry.Square(params.L), params.R, w.pos)
	return w
}

func (w *Waypoint) uniformPoint() geometry.Point {
	return geometry.Point{
		X: w.r.Float64() * w.params.L,
		Y: w.r.Float64() * w.params.L,
	}
}

// steadyStateTrip samples (position, destination, speed) from the
// steady-state law of the waypoint process:
//
//   - the trip endpoints (A, B) are chosen with density proportional to
//     |AB| (longer trips occupy more time), via rejection against the
//     maximum distance L√2;
//   - the current position is uniform along the segment AB, and the
//     remaining destination is B;
//   - the speed has density proportional to 1/v on [VMin, VMax] (slower
//     trips occupy more time), sampled by inversion.
func (w *Waypoint) steadyStateTrip() (pos, dest geometry.Point, speed float64) {
	maxDist := w.params.L * 1.4142135623730951
	var a, b geometry.Point
	for {
		a, b = w.uniformPoint(), w.uniformPoint()
		d := geometry.Dist(a, b)
		if d > 0 && w.r.Float64() < d/maxDist {
			break
		}
	}
	pos = geometry.Lerp(a, b, w.r.Float64())
	// Inverse-CDF for f(v) ∝ 1/v: v = vmin · (vmax/vmin)^U.
	u := w.r.Float64()
	ratio := w.params.VMax / w.params.VMin
	speed = w.params.VMin * math.Pow(ratio, u)
	return pos, b, speed
}

// N implements dyngraph.Dynamic.
func (w *Waypoint) N() int { return w.params.N }

// Step implements dyngraph.Dynamic: every node advances along its trip by
// its speed; nodes arriving at their destination draw a fresh trip and
// rest there for Pause steps. The new positions are staged and committed
// through the incremental churn engine, so cell-list maintenance and the
// per-step delta batches cost O(moved × local density) instead of a full
// rebuild — with Pause = 0 the trajectory is draw-for-draw identical to
// the historical rebuild-per-step implementation.
func (w *Waypoint) Step() {
	next := w.delta.stage(len(w.pos))
	for i := range w.pos {
		if w.wait[i] > 0 {
			w.wait[i]--
			next[i] = w.pos[i]
			continue
		}
		np, reached := geometry.StepToward(w.pos[i], w.dest[i], w.speed[i])
		next[i] = np
		if reached {
			w.dest[i] = w.uniformPoint()
			w.speed[i] = w.r.Range(w.params.VMin, w.params.VMax)
			w.wait[i] = int32(w.params.Pause)
		}
	}
	w.delta.commit(w.pos, w.cells, w.params.R*w.params.R)
}

// ForEachNeighbor implements dyngraph.Dynamic: neighbors are nodes within
// distance R.
func (w *Waypoint) ForEachNeighbor(i int, fn func(j int)) {
	w.cells.ForEachWithin(i, fn)
}

// WarmUp advances the simulation steps times, used to approach the
// stationary regime from InitUniform. A common choice is several multiples
// of MixingTimeEstimate().
func (w *Waypoint) WarmUp(steps int) {
	for t := 0; t < steps; t++ {
		w.Step()
	}
}

// Positions returns the current node positions; the slice is shared and
// must not be modified.
func (w *Waypoint) Positions() []geometry.Point { return w.pos }
