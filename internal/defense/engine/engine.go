// Package engine is the pluggable defense layer: every split-manufacturing
// protection scheme the pipeline can build is a Defense behind a common
// interface, registered by name in a process-wide registry — the mirror
// image of the attacker registry in internal/attack/engine. The
// cross-matrix evaluation (internal/flow.EvaluateMatrix) is parametric over
// defense names, so reproducing a new row of the paper's Tables 4/5 is a
// local change: write a Defense, Register it, and every CLI, report, and
// example can select it.
//
// Eleven defenses ship in the registry, covering all eight scheme families
// the paper compares:
//
//   - "randomize-correction": the paper's proposed scheme — netlist
//     randomization to OER ≈ 100% plus correction-cell lifting and BEOL
//     restoration (one randomization pass at the target OER; the
//     budget-escalation loop lives in flow.Protect).
//   - "naive-lifted": the paper's naive baseline — the same sink pins are
//     lifted through pass-through cells, netlist untouched.
//   - "placement-perturbation": Wang et al. DAC'16 pairwise cell swaps.
//   - "sengupta-random" / "sengupta-gcolor" / "sengupta-gtype1" /
//     "sengupta-gtype2": the four Sengupta et al. ICCAD'17 layout
//     strategies.
//   - "pin-swapping": Rajendran et al. DATE'13 block-pin swapping.
//   - "routing-perturbation": Wang et al. ASP-DAC'17 elevated detours.
//   - "synergistic": Feng et al. ICCAD'17 elevation plus spreading.
//   - "routing-blockage": Magaña et al. TVLSI'17 lower-layer blockage.
//
// Defenses must be deterministic functions of (netlist, library,
// Options.Seed): a fixed seed reproduces a bit-identical layout, which is
// what makes the parallel defense×attacker matrix order-insensitive and
// lets golden-report tests pin results byte-for-byte.
package engine

import (
	"context"

	attack "splitmfg/internal/attack/engine"
	"splitmfg/internal/cell"
	"splitmfg/internal/defense/correction"
	"splitmfg/internal/layout"
	"splitmfg/internal/netlist"
	"splitmfg/internal/registry"
	"splitmfg/internal/route"
)

// Options parameterizes one defense invocation.
type Options struct {
	// Seed is the seed of the defense scope (one matrix evaluation):
	// every defense built for the same design receives the same value,
	// exactly like attack engines share a layer-scope seed. A defense
	// must be a deterministic function of it and derive any streams it
	// needs with DeriveSeed(opt.Seed, label). Schemes that must agree on
	// a shared artifact use a shared label: randomize-correction and
	// naive-lifted both derive their sink selection from "randomize", so
	// the naive baseline lifts exactly the pins the proposed scheme
	// protects — the paper's apples-to-apples comparison.
	Seed int64

	// LiftLayer is the metal layer lifting schemes route through (0 = the
	// scheme's default, 6).
	LiftLayer int

	// UtilPercent is the placement utilization (0 = 70).
	UtilPercent int

	// TargetOER is the randomization stop criterion for the proposed
	// scheme (0 = 0.999).
	TargetOER float64

	// Fraction is the perturbed fraction for the prior-art schemes
	// (scheme-specific meaning; 0 = each scheme's published-ish default).
	Fraction float64

	// Deprecated: RouteParallelism is ignored; every build routes on one
	// goroutine. Only perfbench/replay.go still sets it, and the benchmark
	// change that deletes the strategy knob (ROADMAP "One routing
	// strategy") deletes it too.
	RouteParallelism int

	// RouteStrategy selects flat or hierarchical batched routing for the
	// scheme's place-and-route (zero = auto, resolved per design by die
	// area).
	RouteStrategy route.Strategy
}

// Protected is the unified outcome every defense produces: the routed
// layout under the scheme, plus the scheme metadata the evaluation needs to
// score it the way the paper does.
type Protected struct {
	// Design is the placed-and-routed layout an FEOL adversary sees.
	Design *layout.Design

	// ProtectedPins, when non-nil, restricts CCR scoring to fragments
	// containing these sink pins — the paper scores the proposed scheme
	// (and naive lifting) over the randomized/lifted sinks only. nil means
	// every crossing fragment is scored (the prior-art schemes).
	ProtectedPins map[netlist.PinRef]bool

	// Swaps counts the connectivity exchanges the scheme performed
	// (randomization swaps, block-pin swaps; 0 for schemes that only move
	// cells or wires).
	Swaps int

	// Corr carries the correction-cell construction for lifting schemes
	// (randomize-correction, naive-lifted), nil otherwise. Matrix PPA
	// analysis uses it to score the restored design against the original
	// netlist instead of the erroneous one.
	Corr *correction.Protected

	// Metrics carries per-scheme extras (swap counts, erroneous OER,
	// perturbed-net counts, ...). Keys must be stable across runs; values
	// must be deterministic at a fixed seed.
	Metrics map[string]float64
}

// Defense is one protection scheme.
type Defense interface {
	// Name returns the registry name the defense is selected by.
	Name() string

	// Protect builds the scheme's layout for the netlist. It must treat nl
	// as read-only (clone anything it edits), honor ctx cancellation
	// between major phases, and be deterministic at a fixed opt.Seed.
	Protect(ctx context.Context, nl *netlist.Netlist, lib *cell.Library, opt Options) (*Protected, error)
}

// reg is the process-wide defense registry (shared generic mechanics in
// internal/registry, the same store the attacker layer uses).
var reg = registry.New[Defense]("defense")

// Register adds a defense to the registry, replacing any previous defense
// of the same name. It panics on an empty name.
func Register(d Defense) { reg.Register(d) }

// Lookup returns the defense registered under name.
func Lookup(name string) (Defense, bool) { return reg.Lookup(name) }

// Names lists the registered defense names in sorted order.
func Names() []string { return reg.Names() }

// Resolve maps defense names to defenses, failing with a message that
// lists the registry when any name is unknown.
func Resolve(names []string) ([]Defense, error) { return reg.Resolve(names) }

// DeriveSeed mixes a defense-local label into a seed, giving each
// scheme/stage an independent, order-insensitive stream from one master
// seed. It delegates to the attack engine's mixer (FNV-1a + splitmix64):
// one implementation is what guarantees defense and attack streams with
// distinct labels never collide by construction.
func DeriveSeed(seed int64, label string) int64 {
	return attack.DeriveSeed(seed, label)
}
