package model

import "repro/internal/spec"

// The spec machinery — Spec text/JSON round-trips, typed parameter
// declarations, resolved Args — is the generic internal/spec layer shared
// with the protocol registry. These aliases keep model's historical
// surface (model.Spec, model.Parse, model.Param, ...) intact for model
// packages and entry points.

// Spec names a model and its parameters in textual form.
type Spec = spec.Spec

// New returns a Spec for the named model with default parameters.
func New(name string) Spec { return spec.New(name) }

// Parse reads a spec from its CLI form "name" or "name:key=value,...".
func Parse(text string) (Spec, error) { return spec.Parse(text) }

// The parameter kinds a Param declares.
const (
	Int    = spec.Int
	Float  = spec.Float
	Bool   = spec.Bool
	String = spec.String
)

// Param declares one typed parameter of a model.
type Param = spec.Param

// Args holds a model's resolved parameter values: every declared parameter
// is present, with the spec value when provided and the default otherwise.
type Args = spec.Args
