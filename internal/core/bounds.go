// Package core implements the paper's primary contribution: the
// (M, α, β)-stationarity framework of Sections 2–3 and the flooding-time
// bounds it yields — Theorem 1 for general dynamic graphs, Theorem 3 for
// node-MEGs, Corollaries 4–6 for geometric and graph mobility models, and
// the Appendix A edge-MEG instantiation — together with empirical
// estimators for the Density and β-Independence conditions and the
// dynamic-expansion measurements (spread) used in the proofs.
package core

import "math"

// Theorem1Bound evaluates the Theorem 1 flooding-time bound
//
//	O( M · (1/(nα) + β)² · log² n )
//
// for an (M, α, β)-stationary dynamic graph on n nodes, with the implicit
// constant set to 1 (the experiments compare shapes, not constants).
func Theorem1Bound(m, alpha, beta float64, n int) float64 {
	ln := math.Log(float64(n))
	t := 1/(float64(n)*alpha) + beta
	return m * t * t * ln * ln
}

// Theorem3Bound evaluates the Theorem 3 node-MEG bound
//
//	O( Tmix · (1/(n·P_NM) + η)² · log³ n ).
func Theorem3Bound(tmix, pnm, eta float64, n int) float64 {
	ln := math.Log(float64(n))
	t := 1/(float64(n)*pnm) + eta
	return tmix * t * t * ln * ln * ln
}

// Corollary4Bound evaluates the Corollary 4 geometric random-trip bound
//
//	O( Tmix · (δ²·vol(R)/(λ·n·r^d) + δ⁶/λ²)² · log³ n )
//
// for a d-dimensional region of volume vol with positional-uniformity
// constants δ and λ and transmission radius r.
func Corollary4Bound(tmix, delta, lambda, vol, r float64, d, n int) float64 {
	ln := math.Log(float64(n))
	t := delta*delta*vol/(lambda*float64(n)*math.Pow(r, float64(d))) +
		math.Pow(delta, 6)/(lambda*lambda)
	return tmix * t * t * ln * ln * ln
}

// Corollary5Bound evaluates the random-path bound
//
//	O( Tmix · (|V|/n + δ³)² · log³ n )
//
// for a simple, reversible, δ-regular path family over a point set V.
func Corollary5Bound(tmix float64, v, n int, delta float64) float64 {
	ln := math.Log(float64(n))
	t := float64(v)/float64(n) + math.Pow(delta, 3)
	return tmix * t * t * ln * ln * ln
}

// Corollary6Bound evaluates the random-walk bound
//
//	O( Tmix · (δ²|V|/n + δ⁷)² · log³ n )
//
// for the walk over a δ-regular mobility graph on |V| points.
func Corollary6Bound(tmix float64, v, n int, delta float64) float64 {
	ln := math.Log(float64(n))
	t := delta*delta*float64(v)/float64(n) + math.Pow(delta, 7)
	return tmix * t * t * ln * ln * ln
}

// EdgeMEGBound evaluates the paper's Appendix A bound for the two-state
// edge-MEG with birth rate p and death rate q:
//
//	O( 1/(p+q) · ((p+q)/(np) + 1)² · log² n ).
func EdgeMEGBound(p, q float64, n int) float64 {
	ln := math.Log(float64(n))
	t := (p+q)/(float64(n)*p) + 1
	return 1 / (p + q) * t * t * ln * ln
}

// PriorEdgeMEGBound evaluates the almost-tight bound of [10]
// (Clementi–Macci–Monti–Pasquale–Silvestri, PODC 2008) for the same model:
//
//	O( log n / log(1 + np) ).
//
// Appendix A compares the Theorem 1 instantiation against it: the general
// bound is almost tight whenever q >= np.
func PriorEdgeMEGBound(n int, p float64) float64 {
	return math.Log(float64(n)) / math.Log1p(float64(n)*p)
}

// RWPBound evaluates the random waypoint flooding bound of Section 4.1:
//
//	O( L/vmax · (L²/(n r²) + 1)² · log³ n ).
func RWPBound(l, vmax, r float64, n int) float64 {
	ln := math.Log(float64(n))
	t := l*l/(float64(n)*r*r) + 1
	return l / vmax * t * t * ln * ln * ln
}

// RWPLowerBound evaluates the trivial flooding lower bound Ω(√n / vmax)
// quoted for the sparse setting L ~ √n, r = Θ(1): information must
// physically traverse the square.
func RWPLowerBound(n int, vmax float64) float64 {
	return math.Sqrt(float64(n)) / vmax
}

// TransportLowerBound is the constant-explicit version of the trivial
// lower bound: in one step information advances at most r (one radio hop)
// plus v (carrier movement), so flooding between opposite corners needs at
// least L√2/(r+v) steps. For r = Θ(v) this is Θ(L/v), matching
// RWPLowerBound up to constants.
func TransportLowerBound(l, r, v float64) float64 {
	return l * math.Sqrt2 / (r + v)
}

// MeetingTimeBound evaluates the baseline flooding bound O(T* log n) of
// Dimitriou–Nikoletseas–Spirakis [15], where tstar is the expected meeting
// time of two independent random walks on the mobility graph. Section 4.1
// compares Corollary 6 against it on k-augmented grids.
func MeetingTimeBound(tstar float64, n int) float64 {
	return tstar * math.Log(float64(n))
}
