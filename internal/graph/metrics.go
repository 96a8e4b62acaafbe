package graph

// DegreeStats summarizes the degree sequence of a graph.
type DegreeStats struct {
	Min, Max int
	Mean     float64
}

// Degrees returns the graph's degree statistics. For the empty vertex set it
// returns zeros (builders forbid n == 0, so this is defensive only).
func (g *Graph) Degrees() DegreeStats {
	if g.n == 0 {
		return DegreeStats{}
	}
	s := DegreeStats{Min: g.Degree(0), Max: g.Degree(0)}
	total := 0
	for v := 0; v < g.n; v++ {
		d := g.Degree(v)
		total += d
		if d < s.Min {
			s.Min = d
		}
		if d > s.Max {
			s.Max = d
		}
	}
	s.Mean = float64(total) / float64(g.n)
	return s
}

// DegreeRegularity returns the δ for which the graph is δ-regular in the
// sense of Section 4.1: max degree / min degree. A graph with an isolated
// vertex returns +Inf encoded as a very large value; callers compare against
// thresholds, so we return max degree as the conventional worst case plus
// one to keep it finite and ordered.
func (g *Graph) DegreeRegularity() float64 {
	s := g.Degrees()
	if s.Min == 0 {
		// The paper's definition divides by the minimum degree; a graph with
		// isolated vertices is not δ-regular for any finite δ.
		return float64(g.n) * float64(maxInt(s.Max, 1))
	}
	return float64(s.Max) / float64(s.Min)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// EdgeDensity returns m / (n choose 2), the probability that a uniformly
// random pair is an edge.
func (g *Graph) EdgeDensity() float64 {
	if g.n < 2 {
		return 0
	}
	return float64(g.m) / (float64(g.n) * float64(g.n-1) / 2)
}
