package rng

import "math"

// Alias samples from a fixed discrete distribution in O(1) per draw using
// Walker's alias method (Vose's stable construction). It is the workhorse
// for stepping Markov chains whose rows are sampled millions of times.
type Alias struct {
	prob  []float64
	alias []int32
}

// NewAlias builds an alias table for the (not necessarily normalized)
// non-negative weight vector w. It panics on negative, NaN, or all-zero
// weights.
func NewAlias(w []float64) *Alias {
	n := len(w)
	if n == 0 {
		panic("rng: NewAlias needs at least one weight")
	}
	total := 0.0
	for _, x := range w {
		if x < 0 || math.IsNaN(x) {
			panic("rng: NewAlias needs non-negative weights")
		}
		total += x
	}
	if total <= 0 {
		panic("rng: NewAlias needs a positive total weight")
	}

	a := &Alias{
		prob:  make([]float64, n),
		alias: make([]int32, n),
	}
	// Scaled probabilities: mean 1.
	scaled := make([]float64, n)
	for i, x := range w {
		scaled[i] = x * float64(n) / total
	}
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i := n - 1; i >= 0; i-- {
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]

		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] = (scaled[l] + scaled[s]) - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		a.prob[i] = 1
		a.alias[i] = i
	}
	// Leftover small entries are a floating-point artifact; they are
	// probability-1 columns.
	for _, i := range small {
		a.prob[i] = 1
		a.alias[i] = i
	}
	return a
}

// Sample draws one outcome index using r.
func (a *Alias) Sample(r *RNG) int {
	// One uniform drives both the column choice and the coin flip.
	u := r.Float64() * float64(len(a.prob))
	i := int(u)
	if i >= len(a.prob) { // guard against u == n from rounding
		i = len(a.prob) - 1
	}
	frac := u - float64(i)
	if frac < a.prob[i] {
		return i
	}
	return int(a.alias[i])
}

// Probabilities reconstructs the normalized probability of each outcome from
// the table. It is intended for tests.
func (a *Alias) Probabilities() []float64 {
	n := len(a.prob)
	p := make([]float64, n)
	for i := 0; i < n; i++ {
		p[i] += a.prob[i] / float64(n)
		p[a.alias[i]] += (1 - a.prob[i]) / float64(n)
	}
	return p
}
