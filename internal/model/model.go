// Package model is the spec-driven construction layer of the simulation
// API: a registry mapping model names plus typed parameters to ready
// dyngraph.Dynamic instances. Every entry point — CLIs, examples, the
// bench harness — builds dynamic graphs through Build(spec, seed), so
// adding a scenario means registering one Definition in the model's own
// package instead of extending a switch in every binary.
//
// Model packages self-register from an init function (see
// edgemeg/register.go, mobility/register.go, randompath/register.go; the
// static baseline registers here, since dyngraph cannot import this
// package). A Spec is parseable from a CLI string ("edgemeg:n=512,p=0.004")
// and from JSON, and round-trips through both. The spec text/registry
// machinery itself is the generic internal/spec package, shared with the
// protocol registry (internal/protocol).
package model

import (
	"fmt"

	"repro/internal/dyngraph"
	"repro/internal/markov"
	"repro/internal/rng"
	"repro/internal/spec"
)

// Definition registers a buildable dynamic-graph model.
type Definition struct {
	// Name is the registry key, as written in specs.
	Name string
	// Help is a one-line description for CLI listings.
	Help string
	// Params declares the accepted parameters; Build sees every declared
	// parameter, with defaults filled in.
	Params []Param
	// Build constructs the model. All randomness must come from r so that
	// equal (Spec, seed) pairs yield identical processes.
	Build func(args Args, r *rng.RNG) (dyngraph.Dynamic, error)
}

// Meta implements spec.Definition.
func (d Definition) Meta() spec.Meta {
	return spec.Meta{Name: d.Name, Help: d.Help, Params: d.Params}
}

// ChainAnalyzer is an optional interface of built models whose per-entity
// dynamics is an explicit Markov chain (the per-edge birth/death chain of
// an edge-MEG, the per-node movement chain of a node-MEG). It feeds the
// mixing-time analyses of cmd/mixing without per-model switches.
type ChainAnalyzer interface {
	// MixingChain returns the chain and its stationary distribution.
	MixingChain() (*markov.Sparse, []float64)
}

var registry = spec.NewRegistry[Definition]("model")

// Register adds a model definition. It panics on duplicate names or
// malformed definitions — registration runs from init functions, where
// failing loudly at program start is the correct behavior.
func Register(def Definition) {
	if def.Build == nil {
		panic("model: Register needs a build function")
	}
	registry.Register(def)
}

// Names returns the registered model names, sorted.
func Names() []string { return registry.Names() }

// Usage returns a multi-line listing of every registered model and its
// parameters, for CLI help output.
func Usage() string { return registry.Usage() }

// Resolve validates spec against the registered definition and returns the
// fully-populated argument set.
func Resolve(s Spec) (Definition, Args, error) { return registry.Resolve(s) }

// Build constructs the dynamic graph described by spec, drawing all
// randomness from a fresh rng seeded with seed. Equal (spec, seed) pairs
// build identical processes.
func Build(s Spec, seed uint64) (dyngraph.Dynamic, error) {
	def, args, err := Resolve(s)
	if err != nil {
		return nil, err
	}
	d, err := def.Build(args, rng.New(seed))
	if err != nil {
		return nil, fmt.Errorf("model: building %s: %w", def.Name, err)
	}
	return d, nil
}

// MustBuild is Build for callers whose specs are static program text
// (examples, experiments); it panics on error.
func MustBuild(s Spec, seed uint64) dyngraph.Dynamic {
	d, err := Build(s, seed)
	if err != nil {
		panic(err)
	}
	return d
}
