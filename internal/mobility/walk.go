package mobility

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/markov"
	"repro/internal/nodemeg"
	"repro/internal/rng"
)

// WalkParams configures the classic random-walk mobility model of the
// paper's introduction: "n nodes are placed on an m×m grid; at each time
// step, every node v independently moves to a point in the grid randomly
// chosen among the points adjacent to the one that v occupied at the
// previous time step; at each time step, the edge (u, v) is present in the
// dynamic graph if u and v are located within distance r in the grid."
type WalkParams struct {
	N int     // number of nodes
	M int     // grid side (m x m points)
	R float64 // connection radius in grid units (R = 0: same point only)
	// Stay is the per-step probability of not moving (lazy walk). The
	// classic model uses 0; laziness guarantees aperiodicity.
	Stay float64
	// Rho is the per-step movement range in hops: "every node randomly
	// chooses his next position among all points in V that are within ρ
	// hops from his current position". 0 and 1 both mean the classic
	// one-hop walk. For Rho > 1 the current point is included in the
	// choice set (which also makes the chain aperiodic).
	Rho int
}

// Validate checks the parameters.
func (p WalkParams) Validate() error {
	if p.N < 1 {
		return fmt.Errorf("mobility: need N >= 1, got %d", p.N)
	}
	if p.M < 2 {
		return fmt.Errorf("mobility: need M >= 2, got %d", p.M)
	}
	if p.R < 0 {
		return fmt.Errorf("mobility: need R >= 0, got %v", p.R)
	}
	if p.Stay < 0 || p.Stay >= 1 {
		return fmt.Errorf("mobility: need 0 <= Stay < 1, got %v", p.Stay)
	}
	if p.Rho < 0 {
		return fmt.Errorf("mobility: need Rho >= 0, got %d", p.Rho)
	}
	return nil
}

// Walk is the random-walk mobility model, realized — exactly as Section 4
// prescribes — as a node-MEG whose chain is the (lazy) random walk on the
// grid graph and whose connection map is the grid-radius predicate. It
// implements dyngraph.Dynamic by embedding the generic node-MEG simulator.
type Walk struct {
	*nodemeg.Sim
	params WalkParams
	grid   *graph.Graph
	chain  *markov.Sparse
	pi     []float64
}

// NewWalk builds the model with nodes placed at independent stationary
// positions of the walk (degree-biased over the grid; nearly uniform away
// from the border).
func NewWalk(params WalkParams, r *rng.RNG) (*Walk, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	grid := graph.Grid(params.M, params.M)
	var chain *markov.Sparse
	switch {
	case params.Rho > 1:
		chain = ballWalkChain(grid, params.Rho)
	case params.Stay > 0:
		chain = markov.LazyRandomWalkChain(grid, params.Stay)
	default:
		chain = markov.RandomWalkChain(grid)
	}
	var pi []float64
	if params.Rho > 1 {
		est, err := chain.StationaryPower(1e-10, 200000)
		if err != nil {
			return nil, fmt.Errorf("mobility: rho-walk stationary: %w", err)
		}
		pi = est
	} else {
		pi = markov.WalkStationary(grid)
	}
	var conn nodemeg.ConnectionMap
	if params.R == 0 {
		conn = nodemeg.SameState{S: grid.N()}
	} else {
		conn = nodemeg.NewGridRadius(params.M, params.R)
	}
	sim, err := nodemeg.NewSim(params.N, markov.NewSparseSampler(chain), conn, pi, r)
	if err != nil {
		return nil, fmt.Errorf("mobility: building walk node-MEG: %w", err)
	}
	return &Walk{Sim: sim, params: params, grid: grid, chain: chain, pi: pi}, nil
}

// ballWalkChain returns the chain that jumps to a uniformly random point
// within rho hops (including the current point).
func ballWalkChain(g *graph.Graph, rho int) *markov.Sparse {
	b := markov.NewSparseBuilder(g.N())
	dist := make([]int, g.N())
	for src := 0; src < g.N(); src++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		queue := []int32{int32(src)}
		ball := []int32{int32(src)}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			if dist[v] == rho {
				continue
			}
			g.ForEachNeighbor(int(v), func(u int) {
				if dist[u] == -1 {
					dist[u] = dist[v] + 1
					queue = append(queue, int32(u))
					ball = append(ball, int32(u))
				}
			})
		}
		p := 1 / float64(len(ball))
		for _, u := range ball {
			b.Set(src, int(u), p)
		}
	}
	return b.MustBuild()
}

// PositionOf returns node i's current grid point as (row, col).
func (w *Walk) PositionOf(i int) (row, col int) {
	s := w.State(i)
	return s / w.params.M, s % w.params.M
}
