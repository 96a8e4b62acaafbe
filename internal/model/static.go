package model

import (
	"fmt"

	"repro/internal/dyngraph"
	"repro/internal/graph"
	"repro/internal/rng"
)

// The static baseline — a dynamic graph whose snapshot never changes —
// registers here rather than in dyngraph, which this package imports.
func init() {
	Register(Definition{
		Name: "static",
		Help: "time-invariant graph (the degenerate dynamic baseline)",
		Params: []Param{
			{Name: "topology", Kind: String, Default: "grid",
				Help: "grid | torus | complete | cycle | path | star | gnp"},
			{Name: "m", Kind: Int, Default: "8", Help: "side for grid/torus"},
			{Name: "n", Kind: Int, Default: "0", Help: "nodes for complete/cycle/path/star/gnp (0 means m*m)"},
			{Name: "k", Kind: Int, Default: "1", Help: "hop-augmentation distance for grid/torus"},
			{Name: "p", Kind: Float, Default: "0.05", Help: "edge probability for gnp"},
		},
		Build: func(a Args, r *rng.RNG) (dyngraph.Dynamic, error) {
			m, k := a.Int("m"), a.Int("k")
			n := a.Int("n")
			if n == 0 {
				n = m * m
			}
			topo := a.String("topology")
			switch {
			case (topo == "grid" || topo == "torus") && (m < 1 || k < 1):
				return nil, fmt.Errorf("%s needs m >= 1 and k >= 1, got m=%d k=%d", topo, m, k)
			case n < 1:
				return nil, fmt.Errorf("%s needs n >= 1 (or n=0 with m >= 1), got n=%d", topo, n)
			case topo == "gnp" && !(a.Float("p") >= 0 && a.Float("p") <= 1):
				return nil, fmt.Errorf("gnp needs 0 <= p <= 1, got p=%v", a.Float("p"))
			}
			var g *graph.Graph
			switch topo {
			case "grid":
				if k > 1 {
					g = graph.KAugmentedGrid(m, m, k)
				} else {
					g = graph.Grid(m, m)
				}
			case "torus":
				if k > 1 {
					g = graph.KAugmentedTorus(m, m, k)
				} else {
					g = graph.Torus(m, m)
				}
			case "complete":
				g = graph.Complete(n)
			case "cycle":
				g = graph.Cycle(n)
			case "path":
				g = graph.Path(n)
			case "star":
				g = graph.Star(n)
			case "gnp":
				g = graph.Gnp(n, a.Float("p"), r)
			default:
				return nil, fmt.Errorf("unknown topology %q", topo)
			}
			return dyngraph.NewStatic(g), nil
		},
	})
}
