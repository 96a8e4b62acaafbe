// Package protocol is the spec-driven selection layer for spreading
// protocols, mirroring the model registry of internal/model: a registry
// mapping protocol names plus typed parameters to runnable Protocol
// instances. Every entry point — CLIs, examples, the bench harness —
// selects spreading processes through Build(spec, seed)
// ("push:k=2", "parsimonious:active=8"), so any (model, protocol) pair of
// the paper's family is one pair of spec strings, runnable at scale
// through internal/study.
//
// The built-in protocols (flood, push, pull, pushpull, parsimonious) wrap
// the engines of internal/flood, which share one Result bookkeeping core;
// production callers go through this registry rather than invoking the
// engines directly, so adding a protocol is a registration in this
// package, not an edit to every binary.
package protocol

import (
	"fmt"

	"repro/internal/dyngraph"
	"repro/internal/flood"
	"repro/internal/rng"
	"repro/internal/spec"
)

// Protocol is one runnable spreading process. Implementations hold their
// resolved parameters and, for randomized protocols, a private RNG stream
// seeded at Build time — so a Protocol instance is single-use where
// reproducibility matters: build one per trial from a per-trial seed
// (internal/study does this), and never share one across concurrent runs.
type Protocol interface {
	// Run executes the process on d from source and reports the result.
	// The call is scratch-aware through opts: a caller running many
	// sequential trials sets opts.Scratch once (internal/study gives each
	// worker its own) and every engine reuses those buffers instead of
	// allocating per trial; results are identical either way.
	Run(d dyngraph.Dynamic, source int, opts flood.Opts) flood.Result
}

// Spec names a protocol and its parameters in textual form.
type Spec = spec.Spec

// New returns a Spec for the named protocol with default parameters.
func New(name string) Spec { return spec.New(name) }

// Parse reads a spec from its CLI form "name" or "name:key=value,...".
func Parse(text string) (Spec, error) { return spec.Parse(text) }

// Definition registers a buildable spreading protocol.
type Definition struct {
	// Name is the registry key, as written in specs.
	Name string
	// Help is a one-line description for CLI listings.
	Help string
	// Params declares the accepted parameters; Build sees every declared
	// parameter, with defaults filled in.
	Params []spec.Param
	// Build constructs the protocol. All randomness must come from r so
	// that equal (Spec, seed) pairs yield identical processes.
	Build func(args spec.Args, r *rng.RNG) (Protocol, error)
}

// Meta implements spec.Definition.
func (d Definition) Meta() spec.Meta {
	return spec.Meta{Name: d.Name, Help: d.Help, Params: d.Params}
}

var registry = spec.NewRegistry[Definition]("protocol")

// Register adds a protocol definition. It panics on duplicate names or
// malformed definitions — registration runs from init functions, where
// failing loudly at program start is the correct behavior.
func Register(def Definition) {
	if def.Build == nil {
		panic("protocol: Register needs a build function")
	}
	registry.Register(def)
}

// Names returns the registered protocol names, sorted.
func Names() []string { return registry.Names() }

// Usage returns a multi-line listing of every registered protocol and its
// parameters, for CLI help output.
func Usage() string { return registry.Usage() }

// Resolve validates spec against the registered definition and returns the
// fully-populated argument set.
func Resolve(s Spec) (Definition, spec.Args, error) { return registry.Resolve(s) }

// Build constructs the protocol described by spec, drawing all randomness
// from a fresh rng seeded with seed. Equal (spec, seed) pairs build
// identical processes; derive per-trial seeds with rng.Seed for
// independent trials.
func Build(s Spec, seed uint64) (Protocol, error) {
	def, args, err := Resolve(s)
	if err != nil {
		return nil, err
	}
	p, err := def.Build(args, rng.New(seed))
	if err != nil {
		return nil, fmt.Errorf("protocol: building %s: %w", def.Name, err)
	}
	return p, nil
}

// MustBuild is Build for callers whose specs are static program text
// (examples, experiments); it panics on error.
func MustBuild(s Spec, seed uint64) Protocol {
	p, err := Build(s, seed)
	if err != nil {
		panic(err)
	}
	return p
}

// Flooding returns the deterministic plain-flooding protocol — the one
// Protocol that needs no parameters and no RNG stream. Factory-style
// callers (internal/study.Trials) use it to run flooding grids without
// spec ceremony; it is safe to share across concurrent trials.
func Flooding() Protocol { return floodProto{} }
