// Package rng provides a deterministic, splittable pseudo-random number
// generator and the exact discrete samplers used by every simulator in this
// repository.
//
// All simulations in this project take explicit seeds so that every
// experiment table is reproducible bit-for-bit. The generator is a SplitMix64
// core (Steele, Lea, Flood; "Fast splittable pseudorandom number generators",
// OOPSLA 2014) which is statistically strong enough for Monte-Carlo
// simulation and, unlike math/rand.Source, cheap to split into independent
// streams for parallel trials.
package rng

import "math"

// golden is the 64-bit golden-ratio increment used by SplitMix64.
const golden = 0x9E3779B97F4A7C15

// RNG is a deterministic pseudo-random number generator. The zero value is a
// valid generator seeded with 0; prefer New for clarity.
//
// RNG is not safe for concurrent use; use Split to derive independent
// generators for concurrent workers.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed. Two generators built from the
// same seed produce identical streams.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Reseed re-initializes the generator in place to the stream New(seed)
// would produce, without allocating. Hot paths that need many short-lived
// derived streams (per-node, per-epoch sampling in dyngraph.Subsample)
// keep one RNG value and Reseed it instead of calling New per draw.
func (r *RNG) Reseed(seed uint64) { r.state = seed }

// mix64 is the SplitMix64 output function.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	r.state += golden
	return mix64(r.state)
}

// Split returns a new generator whose stream is independent of the
// receiver's continuation. The receiver advances by one step.
func (r *RNG) Split() *RNG {
	// Advance once and derive the child seed through a second mixing so the
	// child stream does not collide with the parent's future outputs.
	s := r.Uint64()
	return &RNG{state: mix64(s + golden)}
}

// SplitN returns n generators with pairwise independent streams.
func (r *RNG) SplitN(n int) []*RNG {
	out := make([]*RNG, n)
	for i := range out {
		out[i] = r.Split()
	}
	return out
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	// Use the top 53 bits for a uniformly distributed mantissa.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0, matching the
// contract of math/rand.Intn.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's multiply-shift
// rejection method (unbiased).
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Classic unbiased modulo rejection. The loop terminates quickly because
	// the rejection probability is < 1/2 for every n.
	max := ^uint64(0) - ^uint64(0)%n
	for {
		v := r.Uint64()
		if v < max {
			return v % n
		}
	}
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Range returns a uniform float64 in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// NormFloat64 returns a standard normal variate using the Box–Muller
// transform. It is used only by statistical tests, not by the simulators.
func (r *RNG) NormFloat64() float64 {
	// Avoid log(0) by nudging u1 away from zero.
	u1 := r.Float64()
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher–Yates shuffle of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Seed derives a named sub-seed from a base seed. It is a pure function used
// to give each distinct component of an experiment its own reproducible
// stream.
func Seed(base uint64, tags ...uint64) uint64 {
	s := base
	for _, t := range tags {
		s = mix64(s ^ (t + golden))
	}
	return s
}
