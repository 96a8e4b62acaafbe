package edgemeg

import (
	"fmt"

	"repro/internal/markov"
	"repro/internal/rng"
)

// FourStateParams configures the four-state refinement of the edge-MEG
// model studied by Becchetti et al. [5] ("Information Spreading in
// Opportunistic Networks is Fast", arXiv:1107.5241), which the paper cites
// as a link-based model its generalized edge-MEG subsumes. Each edge cycles
// through
//
//	0: long-off  — dormant; wakes up slowly
//	1: short-off — brief gap inside a contact burst
//	2: short-on  — brief contact
//	3: long-on   — sustained contact
//
// capturing the bursty inter-contact statistics of opportunistic networks
// (power-law-ish bursts of short contacts separated by long quiet periods,
// cf. Karagiannis et al. [19]). States 2 and 3 mean "edge present".
type FourStateParams struct {
	N int
	// WakeUp is the long-off -> short-on rate (a new contact burst).
	WakeUp float64
	// Rebound is the short-off -> short-on rate (burst continues).
	Rebound float64
	// Calm is the short-off -> long-off rate (burst ends).
	Calm float64
	// Drop is the short-on -> short-off rate (contact gap).
	Drop float64
	// Settle is the short-on -> long-on rate (contact stabilizes).
	Settle float64
	// Detach is the long-on -> long-off rate (sustained contact ends).
	Detach float64
}

// Validate checks rates are probabilities and rows remain stochastic.
func (p FourStateParams) Validate() error {
	if err := checkNodes(p.N); err != nil {
		return err
	}
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"WakeUp", p.WakeUp}, {"Rebound", p.Rebound}, {"Calm", p.Calm},
		{"Drop", p.Drop}, {"Settle", p.Settle}, {"Detach", p.Detach},
	} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("edgemeg: %s = %v out of [0,1]", r.name, r.v)
		}
	}
	if p.Rebound+p.Calm > 1 {
		return fmt.Errorf("edgemeg: Rebound+Calm = %v > 1", p.Rebound+p.Calm)
	}
	if p.Drop+p.Settle > 1 {
		return fmt.Errorf("edgemeg: Drop+Settle = %v > 1", p.Drop+p.Settle)
	}
	if p.WakeUp == 0 {
		return fmt.Errorf("edgemeg: WakeUp = 0 leaves long-off absorbing")
	}
	return nil
}

// Chain returns the per-edge four-state chain.
func (p FourStateParams) Chain() *markov.Chain {
	return markov.MustChain([][]float64{
		{1 - p.WakeUp, 0, p.WakeUp, 0},
		{p.Calm, 1 - p.Calm - p.Rebound, p.Rebound, 0},
		{0, p.Drop, 1 - p.Drop - p.Settle, p.Settle},
		{p.Detach, 0, 0, 1 - p.Detach},
	})
}

// Chi returns the presence map: the edge exists in the two "on" states.
func (p FourStateParams) Chi() []bool { return []bool{false, false, true, true} }

// Alpha returns the stationary probability that an edge is present.
func (p FourStateParams) Alpha() (float64, error) {
	return StationaryAlpha(p.Chain(), p.Chi())
}

// NewFourState builds the four-state edge-MEG in its stationary regime as
// a generalized edge-MEG.
func NewFourState(p FourStateParams, r *rng.RNG) (*General, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	chain := p.Chain()
	pi, err := chain.StationaryExact()
	if err != nil {
		return nil, fmt.Errorf("edgemeg: four-state stationary: %w", err)
	}
	return NewGeneral(p.N, chain, p.Chi(), pi, r)
}
