package stats

import (
	"fmt"
	"math"
)

// Hist is a fixed-bin histogram over the half-open interval [Lo, Hi).
// Observations outside the interval are counted in Under/Over rather than
// silently dropped.
type Hist struct {
	Lo, Hi float64
	Counts []int64
	Under  int64
	Over   int64
	total  int64
}

// NewHist allocates a histogram with bins equal-width bins over [lo, hi).
// It panics if bins <= 0 or hi <= lo, which are programming errors.
func NewHist(lo, hi float64, bins int) *Hist {
	if bins <= 0 {
		panic("stats: NewHist needs bins > 0")
	}
	if hi <= lo {
		panic("stats: NewHist needs hi > lo")
	}
	return &Hist{Lo: lo, Hi: hi, Counts: make([]int64, bins)}
}

// Add records one observation.
func (h *Hist) Add(x float64) {
	h.total++
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int(float64(len(h.Counts)) * (x - h.Lo) / (h.Hi - h.Lo))
		if i >= len(h.Counts) { // rounding guard at the right edge
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// N returns the total number of observations, including out-of-range ones.
func (h *Hist) N() int64 { return h.total }

// BinWidth returns the width of each bin.
func (h *Hist) BinWidth() float64 { return (h.Hi - h.Lo) / float64(len(h.Counts)) }

// BinCenter returns the midpoint of bin i.
func (h *Hist) BinCenter(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.BinWidth()
}

// Density returns the histogram normalized to a probability density: the
// integral over [Lo, Hi) of the returned step function is the in-range
// fraction of the observations. An empty histogram returns all zeros.
func (h *Hist) Density() []float64 {
	d := make([]float64, len(h.Counts))
	if h.total == 0 {
		return d
	}
	w := h.BinWidth()
	for i, c := range h.Counts {
		d[i] = float64(c) / (float64(h.total) * w)
	}
	return d
}

// Mode returns the center of the most populated bin.
func (h *Hist) Mode() float64 {
	best := 0
	for i, c := range h.Counts {
		if c > h.Counts[best] {
			best = i
		}
	}
	return h.BinCenter(best)
}

// String summarizes the histogram.
func (h *Hist) String() string {
	return fmt.Sprintf("hist[%g,%g) bins=%d n=%d under=%d over=%d",
		h.Lo, h.Hi, len(h.Counts), h.total, h.Under, h.Over)
}

// Hist2D is a fixed-bin two-dimensional histogram over [Lo, Hi) x [Lo, Hi).
// It is used for positional stationary densities of mobility models, where
// the region is a square.
type Hist2D struct {
	Lo, Hi float64
	Bins   int
	Counts []int64 // row-major, Bins x Bins
	total  int64
	out    int64
}

// NewHist2D allocates a bins x bins histogram over the square [lo, hi)^2.
func NewHist2D(lo, hi float64, bins int) *Hist2D {
	if bins <= 0 {
		panic("stats: NewHist2D needs bins > 0")
	}
	if hi <= lo {
		panic("stats: NewHist2D needs hi > lo")
	}
	return &Hist2D{Lo: lo, Hi: hi, Bins: bins, Counts: make([]int64, bins*bins)}
}

// Add records one 2D observation.
func (h *Hist2D) Add(x, y float64) {
	h.total++
	if x < h.Lo || x >= h.Hi || y < h.Lo || y >= h.Hi {
		h.out++
		return
	}
	scale := float64(h.Bins) / (h.Hi - h.Lo)
	i := int((x - h.Lo) * scale)
	j := int((y - h.Lo) * scale)
	if i >= h.Bins {
		i = h.Bins - 1
	}
	if j >= h.Bins {
		j = h.Bins - 1
	}
	h.Counts[i*h.Bins+j]++
}

// N returns the total number of observations.
func (h *Hist2D) N() int64 { return h.total }

// At returns the count of cell (i, j).
func (h *Hist2D) At(i, j int) int64 { return h.Counts[i*h.Bins+j] }

// Density returns the 2D probability density per cell (row-major), i.e.
// count / (total * cellArea). The integral over the square of the returned
// step function equals the in-range fraction.
func (h *Hist2D) Density() []float64 {
	d := make([]float64, len(h.Counts))
	if h.total == 0 {
		return d
	}
	side := (h.Hi - h.Lo) / float64(h.Bins)
	area := side * side
	for i, c := range h.Counts {
		d[i] = float64(c) / (float64(h.total) * area)
	}
	return d
}

// CellCenter returns the center coordinates of cell (i, j).
func (h *Hist2D) CellCenter(i, j int) (x, y float64) {
	side := (h.Hi - h.Lo) / float64(h.Bins)
	return h.Lo + (float64(i)+0.5)*side, h.Lo + (float64(j)+0.5)*side
}

// FractionAbove returns the fraction of the square's area whose cell density
// is at least threshold.
func (h *Hist2D) FractionAbove(threshold float64) float64 {
	if h.total == 0 {
		return 0
	}
	d := h.Density()
	hits := 0
	for _, v := range d {
		if v >= threshold {
			hits++
		}
	}
	return float64(hits) / float64(len(d))
}

// TVToUniform returns the total-variation distance between the in-range
// empirical cell distribution and the uniform distribution on the cells.
// The result is in [0, 1] (assuming all mass in range).
func (h *Hist2D) TVToUniform() float64 {
	if h.total == 0 {
		return math.NaN()
	}
	u := 1.0 / float64(len(h.Counts))
	sum := 0.0
	for _, c := range h.Counts {
		sum += math.Abs(float64(c)/float64(h.total) - u)
	}
	return sum / 2
}
