package splitmfg

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"splitmfg/internal/attack/engine"
	"splitmfg/internal/cell"
	"splitmfg/internal/defense/correction"
	defengine "splitmfg/internal/defense/engine"
	"splitmfg/internal/defense/randomize"
	"splitmfg/internal/flow"
)

// Pipeline is the package's entry point: a configured instance of the
// paper's split-manufacturing flow. Build one with New and functional
// options, then call Protect, Attack, or Evaluate. A Pipeline is immutable
// and safe for concurrent use.
type Pipeline struct {
	cfg pipelineConfig
	lib *cell.Library
}

// New builds a Pipeline. Zero-valued settings resolve per design when an
// entry point runs (e.g. lift layer 6 and a 20% PPA budget for ISCAS
// designs, 8 and 5% for superblue).
func New(opts ...Option) *Pipeline {
	cfg := defaultPipelineConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if fn := cfg.Progress; fn != nil {
		// Serialize the user's hook across every entry point of this
		// Pipeline, not just within one call, so concurrent Protect/Evaluate
		// calls keep the documented no-locking-needed guarantee.
		var mu sync.Mutex
		cfg.Progress = func(ev ProgressEvent) {
			mu.Lock()
			defer mu.Unlock()
			fn(ev)
		}
	}
	return &Pipeline{cfg: cfg, lib: cell.NewNangate45Like()}
}

// bench resolves the design's physical-design settings, the pipeline's
// where set and the design's recommendations otherwise.
func (p *Pipeline) bench(d *Design) flow.Bench {
	b := flow.Bench{
		Name:             d.name,
		Netlist:          d.nl,
		Scale:            d.scale,
		LiftLayer:        p.cfg.liftLayer,
		UtilPercent:      p.cfg.utilPercent,
		PPABudgetPercent: p.cfg.budget,
	}
	if b.LiftLayer == 0 {
		b.LiftLayer = d.recLift
	}
	if b.UtilPercent == 0 {
		b.UtilPercent = d.recUtil
	}
	if b.PPABudgetPercent == 0 {
		b.PPABudgetPercent = d.recBudget
	}
	return b
}

// Protect runs the full Fig.-2 protection flow on the design: randomize to
// OER ≈ 100%, place and route the erroneous netlist with embedded
// correction cells, lift the randomized nets, restore true functionality
// through the BEOL, escalating randomization against the PPA budget. The
// context is honored at every stage boundary.
func (p *Pipeline) Protect(ctx context.Context, d *Design) (*ProtectResult, error) {
	b := p.bench(d)
	res, err := flow.Protect(ctx, p.lib, b, p.cfg.Options)
	if err != nil {
		return nil, err
	}
	return &ProtectResult{design: d, report: res.Report(b, p.cfg.Options), res: res}, nil
}

// Evaluate runs the configured attacker engines (WithAttackers, default
// the network-flow proximity attack) on the layout at each configured
// split layer (default M3/M4/M5), averaging CCR/OER/HD exactly like the
// paper's Tables 4 and 5. Layers are attacked concurrently
// (WithParallelism) with per-(layer, engine) derived seeds, so the report
// is identical at every parallelism level.
func (p *Pipeline) Evaluate(ctx context.Context, l *Layout) (*SecurityReport, error) {
	// Protected layouts score their randomized sinks only.
	sec, err := flow.EvaluateSecurity(ctx, l.d, l.ref, l.onlyPins, p.cfg.Options)
	if err != nil {
		return nil, err
	}
	rep := sec.Report(l.name, p.cfg.Options)
	return &rep, nil
}

// Attackers lists the registered attacker engines, sorted by name. Any of
// them can be selected with WithAttackers; the set ships with "proximity"
// (network-flow, the ISCAS adversary), "crouting" (routing-centric
// candidate lists, the superblue adversary — metrics-only), "random" (the
// chance baseline), and "greedy" (direction-aware nearest driver).
func Attackers() []string { return engine.Names() }

// ParseAttackers parses a comma-separated attacker-engine list (e.g.
// "proximity,greedy"), trimming whitespace around names. It rejects an
// effectively empty list and any name not in the registry, naming the
// registry in the error — the shared front door for every CLI -attacker
// flag, so all front-ends validate identically and fail before any heavy
// work starts.
func ParseAttackers(s string) ([]string, error) {
	names := splitList(s)
	if len(names) == 0 {
		return nil, fmt.Errorf("splitmfg: empty attacker list %q", s)
	}
	if _, err := engine.Resolve(names); err != nil {
		return nil, err
	}
	return names, nil
}

// Defenses lists the registered defense schemes, sorted by name. Any of
// them can be selected with WithDefenses as a row of Matrix; the set ships
// with the paper's proposed "randomize-correction" scheme, the
// "naive-lifted" baseline, and the prior-art comparison points
// ("placement-perturbation", the four "sengupta-*" strategies,
// "pin-swapping", "routing-perturbation", "synergistic",
// "routing-blockage").
func Defenses() []string { return defengine.Names() }

// ParseDefenses parses a comma-separated defense-scheme list (e.g.
// "randomize-correction,pin-swapping"), trimming whitespace around names.
// It rejects an effectively empty list and any name not in the registry,
// naming the registry in the error — the shared front door for every CLI
// -defense flag, so all front-ends validate identically and fail before
// any heavy work starts.
func ParseDefenses(s string) ([]string, error) {
	names := splitList(s)
	if len(names) == 0 {
		return nil, fmt.Errorf("splitmfg: empty defense list %q", s)
	}
	if _, err := defengine.Resolve(names); err != nil {
		return nil, err
	}
	return names, nil
}

// splitList splits a comma-separated list, trimming whitespace and
// dropping empty elements.
func splitList(s string) []string {
	var names []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			names = append(names, part)
		}
	}
	return names
}

// Matrix builds every configured defense (WithDefenses, default the
// paper's randomize-correction scheme) on the design and runs every
// configured attacker (WithAttackers) against each of them at each
// configured split layer — the defense×attacker cross product behind the
// paper's Tables 4 and 5. Rows are defenses (with PPA overheads against
// the unprotected baseline), columns are attackers, and each cell averages
// CCR/OER/HD over the split layers. It runs as a one-design,
// one-replicate Suite without the disk tier (WithCacheDir does not apply):
// the unprotected baseline and the defense rows build concurrently, and
// their split layers are attacked concurrently, within one
// WithParallelism budget; per-(defense, attacker, layer) derived seeds
// keep the report byte-identical at every parallelism level. Progress
// events are Suite's (StageSuiteBaseline, StageAttack, StageSuiteCell).
func (p *Pipeline) Matrix(ctx context.Context, d *Design) (*MatrixReport, error) {
	res, err := flow.EvaluateMatrix(ctx, p.lib, p.bench(d), p.cfg.Options)
	if err != nil {
		return nil, err
	}
	rep := res.Report(d.name, p.cfg.Options)
	return &rep, nil
}

// Suite fans the full (benchmark × defense × attacker × seed-replicate)
// cross product behind the paper's Tables 4/5 through one bounded
// worker pool with a content-addressed result cache: each
// benchmark's unprotected baseline is built once for the whole suite (not
// once per defense or replicate), and repeated cells are served from the
// cache. WithReplicates(n) runs every (benchmark, defense) cell under n
// derived seed streams and reports mean ± standard deviation; the report
// is byte-identical at every parallelism level. Suite-level progress
// events (StageSuiteBaseline, StageSuiteCell) and the computed cells'
// StageAttack events flow through the configured WithProgress hook.
func (p *Pipeline) Suite(ctx context.Context, designs []*Design) (*SuiteReport, error) {
	benches := make([]flow.Bench, len(designs))
	for i, d := range designs {
		benches[i] = p.bench(d)
	}
	res, err := flow.EvaluateSuite(ctx, p.lib, benches, p.cfg.Options)
	if err != nil {
		return nil, err
	}
	rep := res.Report(p.cfg.Options)
	return &rep, nil
}

// Attack takes the attacker's perspective on an unprotected design: build
// the baseline layout and evaluate it. Equivalent to Baseline followed by
// Evaluate.
func (p *Pipeline) Attack(ctx context.Context, d *Design) (*SecurityReport, error) {
	l, err := p.Baseline(ctx, d)
	if err != nil {
		return nil, err
	}
	return p.Evaluate(ctx, l)
}

// Baseline places and routes the design unprotected — the reference layout
// every comparison starts from.
func (p *Pipeline) Baseline(ctx context.Context, d *Design) (*Layout, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	bl, err := correction.BuildOriginal(d.nl, p.lib, flow.BuildOptions(p.bench(d), p.cfg.Options, "baseline"))
	if err != nil {
		return nil, err
	}
	return &Layout{name: d.name, d: bl, ref: d.nl}, nil
}

// Randomized builds the proposed scheme's protected layout directly — one
// randomization pass to the target OER plus correction-cell construction —
// without the baseline layout, PPA accounting, or escalation that Protect
// performs. It is the attacker's-perspective fast path: when only the
// layout under attack matters, it does roughly half the work of Protect.
func (p *Pipeline) Randomized(ctx context.Context, d *Design) (*Layout, error) {
	r, err := randomize.Randomize(ctx, d.nl, p.cfg.Seed, randomize.Options{TargetOER: p.cfg.TargetOER})
	if err != nil {
		return nil, err
	}
	pr, err := correction.BuildProtected(d.nl, r, p.lib, flow.BuildOptions(p.bench(d), p.cfg.Options, "protected"))
	if err != nil {
		return nil, err
	}
	return protectedOf(d.name, d.nl, pr), nil
}

// NaiveLifted builds the paper's naive-lifting baseline: the same sink
// pins Randomized would protect (at the same WithSeed and WithTargetOER)
// are lifted through pass-through cells, but the netlist is left
// untouched.
func (p *Pipeline) NaiveLifted(ctx context.Context, d *Design) (*Layout, error) {
	r, err := randomize.Randomize(ctx, d.nl, p.cfg.Seed, randomize.Options{TargetOER: p.cfg.TargetOER})
	if err != nil {
		return nil, err
	}
	np, err := correction.BuildNaiveLifted(d.nl, r.Protected, p.lib, flow.BuildOptions(p.bench(d), p.cfg.Options, "lifted"))
	if err != nil {
		return nil, err
	}
	return protectedOf(d.name, d.nl, np), nil
}
