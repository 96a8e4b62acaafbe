package mobility

import (
	"fmt"

	"repro/internal/dyngraph"
	"repro/internal/markov"
	"repro/internal/model"
	"repro/internal/rng"
)

// warmup reads the warmup parameter: a step count, so never negative.
func warmup(a model.Args) (int, error) {
	n := a.Int("warmup")
	if n < 0 {
		return 0, fmt.Errorf("mobility: warmup must be >= 0, got %d", n)
	}
	return n, nil
}

// MixingChain implements model.ChainAnalyzer with the per-node movement
// chain of the walk node-MEG.
func (w *Walk) MixingChain() (*markov.Sparse, []float64) { return w.chain, w.pi }

func init() {
	model.Register(model.Definition{
		Name: "waypoint",
		Help: "random waypoint over [0,L]²: straight trips to uniform destinations, radius-R connection",
		Params: []model.Param{
			{Name: "n", Kind: model.Int, Default: "200", Help: "nodes"},
			{Name: "L", Kind: model.Float, Default: "25", Help: "side of the square"},
			{Name: "r", Kind: model.Float, Default: "1.5", Help: "transmission radius"},
			{Name: "vmin", Kind: model.Float, Default: "1", Help: "minimum speed"},
			{Name: "vmax", Kind: model.Float, Default: "0", Help: "maximum speed (0 means vmin)"},
			{Name: "pause", Kind: model.Int, Default: "0", Help: "steps to rest at each destination before the next trip"},
			{Name: "init", Kind: model.String, Default: "steady", Help: "initial law: steady (perfect simulation) | uniform"},
			{Name: "warmup", Kind: model.Int, Default: "0", Help: "steps to advance before use"},
		},
		Build: func(a model.Args, r *rng.RNG) (dyngraph.Dynamic, error) {
			vmin, vmax := a.Float("vmin"), a.Float("vmax")
			if vmax == 0 {
				vmax = vmin
			}
			params := WaypointParams{
				N: a.Int("n"), L: a.Float("L"), R: a.Float("r"),
				VMin: vmin, VMax: vmax, Pause: a.Int("pause"),
			}
			if err := params.Validate(); err != nil {
				return nil, err
			}
			warm, err := warmup(a)
			if err != nil {
				return nil, err
			}
			var init WaypointInit
			switch text := a.String("init"); text {
			case "steady":
				init = InitSteadyState
			case "uniform":
				init = InitUniform
			default:
				return nil, fmt.Errorf("mobility: unknown waypoint init %q (want steady or uniform)", text)
			}
			w := NewWaypoint(params, init, r)
			w.WarmUp(warm)
			return w, nil
		},
	})

	model.Register(model.Definition{
		Name: "walk",
		Help: "random-walk mobility on an m×m grid, grid-radius connection (a node-MEG)",
		Params: []model.Param{
			{Name: "n", Kind: model.Int, Default: "100", Help: "nodes"},
			{Name: "m", Kind: model.Int, Default: "16", Help: "grid side"},
			{Name: "r", Kind: model.Float, Default: "1", Help: "connection radius in grid units (0: same point only)"},
			{Name: "stay", Kind: model.Float, Default: "0.2", Help: "laziness (per-step stay probability)"},
			{Name: "rho", Kind: model.Int, Default: "0", Help: "movement range in hops (>1: ball walk)"},
		},
		Build: func(a model.Args, r *rng.RNG) (dyngraph.Dynamic, error) {
			return NewWalk(WalkParams{
				N: a.Int("n"), M: a.Int("m"), R: a.Float("r"),
				Stay: a.Float("stay"), Rho: a.Int("rho"),
			}, r)
		},
	})

	model.Register(model.Definition{
		Name: "direction",
		Help: "random-direction model over [0,L]²: constant-speed headings with reflection (uniform stationary law)",
		Params: []model.Param{
			{Name: "n", Kind: model.Int, Default: "200", Help: "nodes"},
			{Name: "L", Kind: model.Float, Default: "25", Help: "side of the square"},
			{Name: "r", Kind: model.Float, Default: "1.5", Help: "transmission radius"},
			{Name: "speed", Kind: model.Float, Default: "1", Help: "node speed"},
			{Name: "turn", Kind: model.Float, Default: "0.1", Help: "per-step heading-redraw probability"},
			{Name: "warmup", Kind: model.Int, Default: "0", Help: "steps to advance before use"},
		},
		Build: func(a model.Args, r *rng.RNG) (dyngraph.Dynamic, error) {
			params := DirectionParams{
				N: a.Int("n"), L: a.Float("L"), R: a.Float("r"),
				Speed: a.Float("speed"), Turn: a.Float("turn"),
			}
			if err := params.Validate(); err != nil {
				return nil, err
			}
			warm, err := warmup(a)
			if err != nil {
				return nil, err
			}
			d := NewDirection(params, r)
			d.WarmUp(warm)
			return d, nil
		},
	})

	model.Register(model.Definition{
		Name: "dwaypoint",
		Help: "discretized waypoint chain on an m×m grid with same-point connection (exact Section 4.1 chain)",
		Params: []model.Param{
			{Name: "n", Kind: model.Int, Default: "50", Help: "nodes"},
			{Name: "m", Kind: model.Int, Default: "6", Help: "grid side (chain has m⁴ states)"},
		},
		Build: func(a model.Args, r *rng.RNG) (dyngraph.Dynamic, error) {
			return NewDiscreteWaypointSim(a.Int("n"), a.Int("m"), r)
		},
	})
}
