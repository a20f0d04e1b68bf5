package splitmfg

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"splitmfg/internal/attack/engine"
	"splitmfg/internal/cell"
	"splitmfg/internal/defense/correction"
	defengine "splitmfg/internal/defense/engine"
	"splitmfg/internal/defense/randomize"
	"splitmfg/internal/flow"
	"splitmfg/internal/route"
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
	if fn := cfg.progress; fn != nil {
		// Serialize the user's hook across every entry point of this
		// Pipeline, not just within one call, so concurrent Protect/Evaluate
		// calls keep the documented no-locking-needed guarantee.
		var mu sync.Mutex
		cfg.progress = func(ev ProgressEvent) {
			mu.Lock()
			defer mu.Unlock()
			fn(ev)
		}
	}
	return &Pipeline{cfg: cfg, lib: cell.NewNangate45Like()}
}

// flowConfig resolves the pipeline settings against a design's
// recommendations.
func (p *Pipeline) flowConfig(d *Design) flow.Config {
	c := p.cfg
	fc := flow.Config{
		LiftLayer:        c.liftLayer,
		UtilPercent:      c.utilPercent,
		Seed:             c.seed,
		PPABudgetPercent: c.budget,
		TargetOER:        c.targetOER,
		MaxAttempts:      c.maxAttempts,
		RouteParallelism: c.parallelism,
		RouteStrategy:    route.Strategy(c.routeStrat),
		Progress:         c.progress,
	}
	if fc.LiftLayer == 0 {
		fc.LiftLayer = d.recLift
	}
	if fc.UtilPercent == 0 {
		fc.UtilPercent = d.recUtil
	}
	if fc.PPABudgetPercent == 0 {
		fc.PPABudgetPercent = d.recBudget
	}
	return fc
}

// Protect runs the full Fig.-2 protection flow on the design: randomize to
// OER ≈ 100%, place and route the erroneous netlist with embedded
// correction cells, lift the randomized nets, restore true functionality
// through the BEOL, escalating randomization against the PPA budget. The
// context is honored at every stage boundary.
func (p *Pipeline) Protect(ctx context.Context, d *Design) (*ProtectResult, error) {
	fc := p.flowConfig(d)
	res, err := flow.Protect(ctx, d.nl, p.lib, fc)
	if err != nil {
		return nil, err
	}
	return &ProtectResult{design: d, cfg: fc, res: res}, nil
}

// Evaluate runs the configured attacker engines (WithAttackers, default
// the network-flow proximity attack) on the layout at each configured
// split layer (default M3/M4/M5), averaging CCR/OER/HD exactly like the
// paper's Tables 4 and 5. Layers are attacked concurrently
// (WithParallelism) with per-(layer, engine) derived seeds, so the report
// is identical at every parallelism level.
func (p *Pipeline) Evaluate(ctx context.Context, l *Layout) (*SecurityReport, error) {
	opt := p.evalOptions()
	opt.OnlyPins = l.onlyPins // protected layouts score their randomized sinks only
	sec, err := flow.EvaluateSecurity(ctx, l.d, l.ref, opt)
	if err != nil {
		return nil, err
	}
	rep := sec.Report(l.name, opt)
	return &rep, nil
}

func (p *Pipeline) evalOptions() flow.EvalOptions {
	c := p.cfg
	return flow.EvalOptions{
		SplitLayers:  c.splitLayers,
		Attackers:    c.attackers,
		Seed:         c.seed,
		PatternWords: c.patternWords,
		Parallelism:  c.parallelism,
		Progress:     c.progress,
	}
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
	opt := p.matrixOptions()
	res, err := flow.EvaluateMatrix(ctx, p.lib, p.suiteBenchmark(d), opt)
	if err != nil {
		return nil, err
	}
	rep := res.Report(d.name, opt)
	return &rep, nil
}

// matrixOptions carries the pipeline settings Matrix and Suite share.
func (p *Pipeline) matrixOptions() flow.MatrixOptions {
	c := p.cfg
	return flow.MatrixOptions{
		Defenses:      c.defenses,
		Attackers:     c.attackers,
		SplitLayers:   c.splitLayers,
		Seed:          c.seed,
		PatternWords:  c.patternWords,
		Parallelism:   c.parallelism,
		TargetOER:     c.targetOER,
		Fraction:      c.fraction,
		RouteStrategy: route.Strategy(c.routeStrat),
		Progress:      c.progress,
	}
}

// suiteBenchmark resolves the design's physical-design settings against
// its recommendations.
func (p *Pipeline) suiteBenchmark(d *Design) flow.SuiteBenchmark {
	fc := p.flowConfig(d)
	return flow.SuiteBenchmark{
		Name:        d.name,
		Netlist:     d.nl,
		Scale:       d.scale,
		LiftLayer:   fc.LiftLayer,
		UtilPercent: fc.UtilPercent,
	}
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
	opt := flow.SuiteOptions{
		MatrixOptions: p.matrixOptions(),
		Replicates:    p.cfg.replicates,
		CacheDir:      p.cfg.cacheDir,
	}
	for _, d := range designs {
		opt.Benchmarks = append(opt.Benchmarks, p.suiteBenchmark(d))
	}
	res, err := flow.EvaluateSuite(ctx, p.lib, opt)
	if err != nil {
		return nil, err
	}
	rep := res.Report(opt)
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
	bl, err := correction.BuildOriginal(d.nl, p.lib, p.flowConfig(d).BuildOptions("baseline"))
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
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.cfg.seed))
	r, err := randomize.Randomize(d.nl, rng, randomize.Options{TargetOER: p.cfg.targetOER})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pr, err := correction.BuildProtected(d.nl, r, p.lib, p.flowConfig(d).BuildOptions("protected"))
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
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.cfg.seed))
	r, err := randomize.Randomize(d.nl, rng, randomize.Options{TargetOER: p.cfg.targetOER})
	if err != nil {
		return nil, err
	}
	sinks := correction.SortedPins(r.Protected)
	np, err := correction.BuildNaiveLifted(d.nl, sinks, p.lib, p.flowConfig(d).BuildOptions("lifted"))
	if err != nil {
		return nil, err
	}
	return protectedOf(d.name, d.nl, np), nil
}
