// Package engine is the pluggable attacker layer: every attack the
// evaluation pipeline can run against a split layout is an Engine behind a
// common interface, registered by name in a process-wide registry. The
// security evaluation (internal/flow.EvaluateSecurity) is parametric over
// engine names, so adding a new adversary model is a local change — write
// an Engine, Register it, and every CLI, report, and example can select it
// — instead of cross-cutting surgery through the flow and API layers.
//
// Four engines ship in the registry:
//
//   - "proximity": the paper's network-flow proximity attack (Wang et al.
//     style, all five published hints) — the ISCAS-85 adversary.
//   - "crouting": the routing-centric candidate-list attack (Magaña et
//     al. style) — the superblue adversary. Metrics-only: it confines the
//     solution space rather than proposing an assignment.
//   - "random": uniform random sink-to-driver assignment — the sanity
//     floor for OER/HD (any defense must at least beat chance).
//   - "greedy": direction-aware nearest-compatible-driver assignment —
//     a fast approximation of proximity without the min-cost max-flow
//     machinery, usable at superblue scale.
//
// Engines must be deterministic functions of (design, split view,
// Options.Seed): a fixed seed reproduces bit-identical results, which is
// what makes parallel split-layer evaluation order-insensitive.
package engine

import (
	"context"
	"hash/fnv"

	"splitmfg/internal/layout"
	"splitmfg/internal/metrics"
	"splitmfg/internal/netlist"
	"splitmfg/internal/registry"
)

// Options parameterizes one engine invocation.
type Options struct {
	// Seed is the seed of the evaluation scope (typically one split
	// layer): every engine attacking the same view receives the same
	// value, and the caller derives its own streams from it as well (the
	// OER/HD patterns, under "<name>/patterns"). A stochastic engine
	// must derive its own stream from it — DeriveSeed(opt.Seed,
	// e.Name()) — and be deterministic given a fixed seed; deriving by
	// name keeps every engine's stream apart from the others' and from
	// the caller's.
	Seed int64

	// Ref is the original (reference) netlist. Engines may use it ONLY
	// for ground-truth metrics (e.g. crouting's match-in-list rate),
	// never to guide the attack itself — candidate construction stays
	// FEOL-only.
	Ref *netlist.Netlist
}

// Result is the unified attack outcome every engine produces.
type Result struct {
	// Assignment maps each pure-sink fragment to the driver fragment the
	// attacker believes feeds it. nil for metrics-only engines (crouting),
	// whose contribution is solution-space confinement, not a netlist.
	Assignment metrics.Assignment

	// Metrics carries per-attacker extras (candidate counts, list sizes,
	// ...). Keys must be stable across runs; values must be deterministic
	// at a fixed seed.
	Metrics map[string]float64
}

// Engine is one adversary model.
type Engine interface {
	// Name returns the registry name the engine is selected by.
	Name() string

	// Attack runs the engine against the FEOL view of the design. It must
	// treat d and sv as read-only (clone anything it edits), honor ctx
	// cancellation between major phases, and be deterministic at a fixed
	// opt.Seed.
	Attack(ctx context.Context, d *layout.Design, sv *layout.SplitView, opt Options) (Result, error)
}

// reg is the process-wide attacker registry (shared generic mechanics in
// internal/registry).
var reg = registry.New[Engine]("attacker")

// Register adds an engine to the registry, replacing any previous engine
// of the same name. It panics on an empty name.
func Register(e Engine) { reg.Register(e) }

// Lookup returns the engine registered under name.
func Lookup(name string) (Engine, bool) { return reg.Lookup(name) }

// Names lists the registered engine names in sorted order.
func Names() []string { return reg.Names() }

// Resolve maps engine names to engines, failing with a message that lists
// the registry when any name is unknown.
func Resolve(names []string) ([]Engine, error) { return reg.Resolve(names) }

// DeriveSeed mixes an engine-local label into a seed (FNV-1a then a
// splitmix64 finalizer), giving each engine an independent,
// order-insensitive stream from one master seed.
func DeriveSeed(seed int64, label string) int64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	z := uint64(seed) ^ h.Sum64()
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
