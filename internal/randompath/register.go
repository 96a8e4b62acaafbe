package randompath

import (
	"fmt"
	"sync"

	"repro/internal/dyngraph"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/rng"
)

// FamilyPaths returns the named built-in path family over an m×m grid.
// The same names are accepted by the "paths" model spec.
func FamilyPaths(family string, m int, h *graph.Graph) ([]Path, error) {
	switch family {
	case "l":
		return GridLPaths(m), nil
	case "edges":
		return EdgePaths(h), nil
	case "star":
		return StarPaths(m), nil
	}
	return nil, fmt.Errorf("randompath: unknown family %q (want l, edges, or star)", family)
}

// Experiment harnesses build one simulation per trial from the same spec,
// so the registry memoizes the indexed Model per (family, m): generating
// and validating a grid path family costs O(m⁵), while the Model itself is
// immutable after New and safe to share across concurrent sims.
var modelCache struct {
	sync.Mutex
	byKey map[[2]any]*Model
}

func cachedGridModel(family string, m int) (*Model, error) {
	key := [2]any{family, m}
	modelCache.Lock()
	defer modelCache.Unlock()
	if mod, ok := modelCache.byKey[key]; ok {
		return mod, nil
	}
	h := graph.Grid(m, m)
	paths, err := FamilyPaths(family, m, h)
	if err != nil {
		return nil, err
	}
	mod, err := New(h, paths)
	if err != nil {
		return nil, err
	}
	if modelCache.byKey == nil {
		modelCache.byKey = map[[2]any]*Model{}
	}
	modelCache.byKey[key] = mod
	return mod, nil
}

func init() {
	model.Register(model.Definition{
		Name: "paths",
		Help: "random-path mobility RP = (H, P) over an m×m grid, hop-radius connection",
		Params: []model.Param{
			{Name: "n", Kind: model.Int, Default: "30", Help: "nodes"},
			{Name: "m", Kind: model.Int, Default: "10", Help: "grid side of the mobility graph H"},
			{Name: "family", Kind: model.String, Default: "l", Help: "path family: l (L-shaped shortest paths) | edges (walk) | star (congested)"},
			{Name: "hop", Kind: model.Int, Default: "1", Help: "transmission hop radius in H"},
		},
		Build: func(a model.Args, r *rng.RNG) (dyngraph.Dynamic, error) {
			if m := a.Int("m"); m < 2 {
				return nil, fmt.Errorf("paths needs grid side m >= 2, got m=%d", m)
			}
			mod, err := cachedGridModel(a.String("family"), a.Int("m"))
			if err != nil {
				return nil, err
			}
			return mod.NewSimHopRadius(a.Int("n"), a.Int("hop"), r)
		},
	})
}
