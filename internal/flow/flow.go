// Package flow orchestrates the paper's full protection scheme (Fig. 2):
// randomize the netlist to OER ≈ 100%, place and route the erroneous
// design with embedded correction cells, lift the randomized nets, restore
// true functionality through the BEOL, and iterate the amount of
// randomization against a PPA budget. It also bundles the security
// evaluation used across the paper's tables: pluggable attacker engines
// (internal/attack/engine) at several split layers with CCR/OER/HD
// scoring.
//
// Every entry point takes a context.Context, one design's Bench (or
// several) and one Options, honors cancellation at stage boundaries,
// reports stage transitions with per-stage timings through
// Options.Progress, and EvaluateSecurity fans the
// independent split-layer attacks out over a worker pool with per-layer
// derived RNG seeds, so its results do not depend on layer order or on
// the degree of parallelism.
package flow

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"splitmfg/internal/attack/engine"
	"splitmfg/internal/cell"
	"splitmfg/internal/defense/correction"
	"splitmfg/internal/defense/randomize"
	"splitmfg/internal/layout"
	"splitmfg/internal/metrics"
	"splitmfg/internal/netlist"
	"splitmfg/internal/route"
	"splitmfg/internal/sim"
	"splitmfg/internal/timing"
)

// Stage identifies a phase of the protection flow or the attack loop.
type Stage string

// Stages, in the order Protect and EvaluateSecurity pass through them.
const (
	StageRandomize Stage = "randomize"
	StagePlace     Stage = "place"
	StageLift      Stage = "lift"
	StageRoute     Stage = "route"
	StageRestore   Stage = "restore"
	StageVerify    Stage = "verify"
	StagePPA       Stage = "ppa"
	StageAttack    Stage = "attack"
)

// Event is one completed stage transition.
type Event struct {
	Stage     Stage
	Attempt   int           // Protect escalation attempt (1-based; 0 for baseline work)
	Layer     int           // split layer for StageAttack events, else 0
	Bench     string        // benchmark name for suite-level events, else ""
	Replicate int           // seed replicate for StageSuiteCell events (0-based), else 0
	Detail    string        // e.g. "baseline", "protected", "vacuous"
	Elapsed   time.Duration // how long the stage took
}

// ProgressFunc receives stage-completion events. It may be called from
// multiple goroutines during parallel evaluation, but calls are always
// serialized — implementations need no locking of their own.
type ProgressFunc func(Event)

// Options holds the design-independent settings every flow entry point
// reads; each entry point uses the subset it needs. Zero values resolve
// to the library defaults below.
type Options struct {
	Seed         int64    // master seed; every stream the flow draws derives from it
	TargetOER    float64  // randomization stop criterion (0 = 0.999, resolved by the randomizer)
	PatternWords int      // 64-pattern words for OER/HD (default 256)
	SplitLayers  []int    // layers to attack (default M3,M4,M5)
	Attackers    []string // attacker-engine names run at every split layer (default "proximity")
	Defenses     []string // defense-engine names, the matrix rows (default "randomize-correction")
	Fraction     float64  // perturbed fraction for prior-art defenses (0 = each scheme's default)
	Replicates   int      // seed replicates per suite cell (default 1)
	MaxAttempts  int      // escalation attempts in Protect (default 6; 1 = no escalation)

	// Parallelism is the one worker budget that concurrent builds and
	// split-layer attacks share (0 = GOMAXPROCS, 1 = serial); each build
	// places and routes on one goroutine. Reports are byte-identical at
	// every level.
	Parallelism int

	// RouteStrategy selects flat or hierarchical routing (zero = auto, by
	// die area). It changes routed results, so cache keys include it.
	RouteStrategy route.Strategy

	// CacheDir, when non-empty, checkpoints EvaluateSuite's baselines and
	// cells in a disk store (internal/store), so a killed run rerun with
	// the same dir recomputes only the unfinished cells.
	CacheDir string

	Progress ProgressFunc // optional stage-completion events
}

// Library defaults of the design-independent knobs. Options resolves a
// zero value to these, and JobRequest.CacheKey resolves omitted request
// fields to them, so a spelled-out default and an omitted one share a key.
// Lift layer, utilization and PPA budget default per design (Bench).
const (
	DefaultTargetOER    = 0.999
	DefaultPatternWords = 256
	DefaultMaxAttempts  = 6
	DefaultReplicates   = 1
	DefaultAttacker     = "proximity"
	DefaultDefense      = "randomize-correction"
)

// DefaultSplitLayers returns the split layers of the paper's Tables 4
// and 5, M3–M5.
func DefaultSplitLayers() []int { return []int{3, 4, 5} }

// withDefaults resolves the zero values an entry point acts on. TargetOER
// and Fraction stay raw: suite cache keys print them as given, and the
// randomizer and the prior-art defenses resolve zero themselves.
func (o Options) withDefaults() Options {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = DefaultMaxAttempts // a non-positive cap would skip the loop and return nothing
	}
	if o.PatternWords == 0 {
		o.PatternWords = DefaultPatternWords
	}
	if len(o.SplitLayers) == 0 {
		o.SplitLayers = DefaultSplitLayers()
	}
	if len(o.Attackers) == 0 {
		o.Attackers = []string{DefaultAttacker}
	}
	if len(o.Defenses) == 0 {
		o.Defenses = []string{DefaultDefense}
	}
	if o.Replicates <= 0 {
		o.Replicates = DefaultReplicates
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// Bench is one design together with the physical-design settings it is
// built under. Scale identifies the netlist variant in suite cache keys
// (the superblue scale divisor; 1 for ISCAS designs, whose generator
// ignores scale).
type Bench struct {
	Name             string
	Netlist          *netlist.Netlist
	Scale            int
	LiftLayer        int     // 6 (ISCAS) or 8 (superblue)
	UtilPercent      int     // placement utilization
	PPABudgetPercent float64 // Protect's allowed power/delay overhead (20 ISCAS, 5 superblue)
}

func (b Bench) withDefaults() Bench {
	if b.LiftLayer == 0 {
		b.LiftLayer = 6
	}
	if b.UtilPercent == 0 {
		b.UtilPercent = 70
	}
	if b.PPABudgetPercent == 0 {
		b.PPABudgetPercent = 20
	}
	return b
}

// emitter serializes progress callbacks; a nil emitter drops all events.
type emitter struct {
	mu sync.Mutex
	fn ProgressFunc
}

func newEmitter(fn ProgressFunc) *emitter {
	if fn == nil {
		return nil
	}
	return &emitter{fn: fn}
}

func (e *emitter) emit(ev Event) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.fn(ev)
}

// BuildOptions returns the correction-cell options for one build of b
// under opt outside Protect (Attempt 0), reporting the build's stage
// events to opt.Progress under detail ("baseline", "protected",
// "lifted").
func BuildOptions(b Bench, opt Options, detail string) correction.Options {
	return buildOptions(b, opt, newEmitter(opt.Progress), 0, detail)
}

// buildOptions returns the correction-cell options for one build of b
// under opt, with its stage events sent to em under attempt and detail;
// a nil emitter attaches no hook.
func buildOptions(b Bench, opt Options, em *emitter, attempt int, detail string) correction.Options {
	copt := correction.Options{LiftLayer: b.LiftLayer, UtilPercent: b.UtilPercent, Seed: opt.Seed,
		RouteOpt: route.Options{Strategy: opt.RouteStrategy}}
	if em != nil {
		copt.Observe = func(stage string, d time.Duration) {
			em.emit(Event{Stage: Stage(stage), Attempt: attempt, Detail: detail, Elapsed: d})
		}
	}
	return copt
}

// ProtectResult is the flow outcome.
type ProtectResult struct {
	Protected *correction.Protected
	Baseline  *layout.Design
	BasePPA   timing.PPA
	FinalPPA  timing.PPA // restored design, against the original netlist
	OER       float64    // of the erroneous FEOL netlist
	Swaps     int
	Budget    float64 // configured budget (%)
	PowerOH   float64 // final overheads (%)
	DelayOH   float64
	AreaOH    float64
}

// Protect runs the full Fig.-2 flow: it escalates randomization until the
// OER target is met, then checks the restored design's PPA against the
// budget, halving the swap count while the budget is exceeded. The context
// is checked at every stage boundary of every escalation attempt;
// cancellation returns ctx.Err() promptly.
func Protect(ctx context.Context, lib *cell.Library, b Bench, opt Options) (*ProtectResult, error) {
	b, opt = b.withDefaults(), opt.withDefaults()
	original := b.Netlist
	em := newEmitter(opt.Progress)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	baseline, err := correction.BuildOriginal(original, lib, buildOptions(b, opt, em, 0, "baseline"))
	if err != nil {
		return nil, fmt.Errorf("flow: baseline: %v", err)
	}
	basePPA, err := timing.AnalyzeDesign(baseline, lib)
	if err != nil {
		return nil, err
	}

	// Fig. 2's loop: first randomize until OER ≈ 100%, then keep adding
	// randomization while the PPA budget is not yet expended. We escalate
	// the swap budget geometrically and keep the largest within-budget
	// protected design.
	totalPins := 0
	for _, g := range original.Gates {
		totalPins += len(g.Fanin)
	}
	maxSwaps := 0 // first pass: whatever the OER target needs
	var within, last *ProtectResult
	for attempt := 0; attempt < opt.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(opt.Seed))
		target := opt.TargetOER
		if attempt > 0 {
			target = 2 // beyond-reachable: the swap cap governs escalation
		}
		start := time.Now()
		r, err := randomize.Randomize(original, rng, randomize.Options{
			TargetOER: target,
			MaxSwaps:  maxSwaps,
		})
		if err != nil {
			return nil, fmt.Errorf("flow: randomize: %v", err)
		}
		em.emit(Event{Stage: StageRandomize, Attempt: attempt + 1,
			Detail: fmt.Sprintf("%d swaps, OER %.3f", len(r.Swaps), r.OER), Elapsed: time.Since(start)})
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p, err := correction.BuildProtected(original, r, lib, buildOptions(b, opt, em, attempt+1, "protected"))
		if err != nil {
			return nil, fmt.Errorf("flow: protect: %v", err)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Verify restoration (the paper's Formality step).
		start = time.Now()
		rec, err := p.RestoredNetlist()
		if err != nil {
			return nil, err
		}
		if !rec.SameStructure(original) {
			return nil, fmt.Errorf("flow: BEOL restoration failed to recover the original")
		}
		em.emit(Event{Stage: StageVerify, Attempt: attempt + 1, Elapsed: time.Since(start)})
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start = time.Now()
		ppa, err := timing.AnalyzeRestored(p.Design, original, p.Design.Masters, lib)
		if err != nil {
			return nil, err
		}
		areaOH, powerOH, delayOH := ppa.Overhead(basePPA)
		em.emit(Event{Stage: StagePPA, Attempt: attempt + 1,
			Detail: fmt.Sprintf("power %+.1f%% delay %+.1f%%", powerOH, delayOH), Elapsed: time.Since(start)})
		res := &ProtectResult{
			Protected: p, Baseline: baseline, BasePPA: basePPA, FinalPPA: ppa,
			OER: r.OER, Swaps: len(r.Swaps), Budget: b.PPABudgetPercent,
			PowerOH: powerOH, DelayOH: delayOH, AreaOH: areaOH,
		}
		last = res
		overBudget := powerOH > b.PPABudgetPercent || delayOH > b.PPABudgetPercent
		if !overBudget {
			within = res
		}
		next := len(r.Swaps) * 2
		if overBudget || next > totalPins/4 || len(r.Swaps) < maxSwaps {
			break // budget expended, or no headroom / no more feasible swaps
		}
		maxSwaps = next
	}
	if within != nil {
		return within, nil
	}
	return last, nil
}

// AttackOutcome is one attacker engine's result at one split layer.
type AttackOutcome struct {
	Attacker  string
	Scored    bool // engine proposed an assignment that was CCR/OER/HD-scored
	Fragments int  // sink fragments scored
	Correct   int  // fragments reconnected correctly
	CCR       float64
	OER       float64
	HD        float64
	Metrics   map[string]float64 // engine-specific extras
	Elapsed   time.Duration
}

// LayerResult is the attack outcome at one split layer. The headline
// Fragments/Correct/CCR/OER/HD come from the primary attacker — the first
// requested engine that produced a scorable assignment — so single-attacker
// evaluations read exactly as before; Attacks carries every engine's
// outcome. Scored is false when every requested engine was metrics-only
// (e.g. crouting alone): such a layer contributes its engine sections but
// stays out of the headline averages, which would otherwise report a
// meaningless CCR/OER/HD of zero.
type LayerResult struct {
	Layer     int
	VPins     int // vias crossing the split boundary (the exposed surface)
	Fragments int // sink fragments scored (0 for a vacuous layer)
	Correct   int // fragments the attacker reconnected correctly
	CCR       float64
	OER       float64
	HD        float64
	Vacuous   bool            // nothing crossed this boundary
	Scored    bool            // some engine's assignment was CCR/OER/HD-scored
	Attacks   []AttackOutcome // one entry per requested attacker, in request order
	Elapsed   time.Duration
}

// AttackerResult aggregates one attacker engine's outcomes over the
// non-vacuous split layers.
type AttackerResult struct {
	Attacker     string
	Scored       bool
	CCR, OER, HD float64
	Fragments    int                // summed over layers
	Correct      int                // summed over layers
	Layers       int                // layers the engine ran on
	Metrics      map[string]float64 // averaged over layers
}

// SecurityResult aggregates attack outcomes averaged over split layers.
// The headline CCR/OER/HD track the primary attacker; PerAttacker carries
// every requested engine's averages.
type SecurityResult struct {
	CCR, OER, HD float64
	Protected    int              // sink fragments scored (summed over layers)
	Layers       int              // layers that actually had something to attack
	PerLayer     []LayerResult    // one entry per requested layer, in request order
	PerAttacker  []AttackerResult // one entry per requested attacker, in request order
}

// layerSeed derives an independent, order-insensitive RNG seed for one
// split layer from the master seed (splitmix64 finalizer). Deriving per
// layer — rather than sharing one stream across the layer loop — keeps a
// layer's OER/HD independent of whether earlier layers were vacuous, and
// makes parallel and serial evaluation bit-identical.
func layerSeed(seed int64, layer int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(layer+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// EvaluateSecurity runs the configured attacker engines on the design at
// each split layer and averages CCR/OER/HD, exactly like the paper's
// Tables 4 and 5 ("metrics averaged for splitting after M3, M4, and M5").
// ref is the original netlist (the attacker's target). When onlyPins is
// non-nil, CCR is scored only over fragments containing those sink pins —
// the paper scores the protected (randomized) nets. It reads opt's
// SplitLayers, Attackers, Seed, PatternWords, Parallelism and Progress.
//
// opt.Attackers selects the engines (internal/attack/engine registry;
// default the paper's network-flow "proximity" attack). Every engine runs
// on every layer; the headline averages track the first engine that
// produces a scorable assignment, and per-engine sections carry the rest.
//
// Layers are evaluated concurrently (opt.Parallelism workers) and merged
// deterministically in request order; results are identical for any
// parallelism level, and for any engine, because each (layer, engine) pair
// derives its own RNG stream from the master seed.
func EvaluateSecurity(ctx context.Context, d *layout.Design, ref *netlist.Netlist,
	onlyPins map[netlist.PinRef]bool, opt Options) (SecurityResult, error) {
	opt = opt.withDefaults()
	if _, err := engine.Resolve(opt.Attackers); err != nil {
		return SecurityResult{}, err
	}
	em := newEmitter(opt.Progress)
	layers := opt.SplitLayers

	results := make([]LayerResult, len(layers))
	errs := runPool(len(layers), opt.Parallelism, func(i, _ int) error {
		var err error
		results[i], err = evaluateLayer(ctx, d, ref, layers[i], onlyPins, opt)
		detail := ""
		if results[i].Vacuous {
			detail = "vacuous"
		}
		em.emit(Event{Stage: StageAttack, Layer: layers[i], Detail: detail, Elapsed: results[i].Elapsed})
		return err
	}, nil)

	var out SecurityResult
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	out.PerLayer = results
	for _, lr := range results {
		if lr.Vacuous || !lr.Scored {
			continue
		}
		out.CCR += lr.CCR
		out.OER += lr.OER
		out.HD += lr.HD
		out.Protected += lr.Fragments
		out.Layers++
	}
	if out.Layers > 0 {
		out.CCR /= float64(out.Layers)
		out.OER /= float64(out.Layers)
		out.HD /= float64(out.Layers)
	}
	out.PerAttacker = aggregateAttackers(opt.Attackers, results)
	return out, nil
}

// aggregateAttackers averages each engine's per-layer outcomes over the
// non-vacuous layers, in the requested engine order.
func aggregateAttackers(attackers []string, results []LayerResult) []AttackerResult {
	out := make([]AttackerResult, 0, len(attackers))
	for i, name := range attackers {
		ar := AttackerResult{Attacker: name}
		sums := map[string]float64{}
		for _, lr := range results {
			if lr.Vacuous || i >= len(lr.Attacks) {
				continue
			}
			ao := lr.Attacks[i]
			ar.Layers++
			ar.Scored = ar.Scored || ao.Scored
			ar.CCR += ao.CCR
			ar.OER += ao.OER
			ar.HD += ao.HD
			ar.Fragments += ao.Fragments
			ar.Correct += ao.Correct
			//smlint:ordered each key accumulates independently; no cross-key interaction, so visit order cannot reach the per-key sums
			for k, v := range ao.Metrics {
				sums[k] += v
			}
		}
		if ar.Layers > 0 {
			ar.CCR /= float64(ar.Layers)
			ar.OER /= float64(ar.Layers)
			ar.HD /= float64(ar.Layers)
			if len(sums) > 0 {
				ar.Metrics = make(map[string]float64, len(sums))
				//smlint:ordered independent per-key writes into a fresh map; renderers sort keys before printing
				for k, v := range sums {
					ar.Metrics[k] = v / float64(ar.Layers)
				}
			}
		}
		out = append(out, ar)
	}
	return out
}

// evaluateLayer attacks one split layer with every configured engine. It
// is self-contained: each (layer, engine) pair derives its own RNG stream
// and touches d and ref read-only, so layers can run concurrently.
//
//smlint:hot
func evaluateLayer(ctx context.Context, d *layout.Design, ref *netlist.Netlist, layer int,
	onlyPins map[netlist.PinRef]bool, opt Options) (LayerResult, error) {
	start := time.Now()
	lr := LayerResult{Layer: layer}
	if err := ctx.Err(); err != nil {
		return lr, err
	}
	sv, err := d.Split(layer)
	if err != nil {
		return lr, err
	}
	lr.VPins = len(sv.VPins)
	// The scored surface is a property of the split alone (which sink
	// fragments crossed the boundary), not of any attack outcome.
	surface := scoreCCR(d, sv, ref, nil, onlyPins)
	if surface.Protected == 0 {
		lr.Vacuous = true // nothing crossed this boundary
		lr.Elapsed = time.Since(start)
		return lr, nil
	}
	lr.Fragments = surface.Protected

	primary := false
	for _, name := range opt.Attackers {
		eng, _ := engine.Lookup(name) // validated up front in EvaluateSecurity
		ao, err := runAttacker(ctx, eng, d, sv, ref, layer, onlyPins, opt)
		if err != nil {
			return lr, err
		}
		lr.Attacks = append(lr.Attacks, ao)
		if ao.Scored && !primary {
			primary = true
			lr.Scored = true
			lr.Fragments = ao.Fragments
			lr.Correct = ao.Correct
			lr.CCR = ao.CCR
			lr.OER = ao.OER
			lr.HD = ao.HD
		}
	}
	lr.Elapsed = time.Since(start)
	return lr, nil
}

// runAttacker runs one engine on one split layer and scores its outcome.
// Every engine receives the same layer-scope seed (stochastic engines
// derive their own stream from it by name, per the engine.Options
// contract), while the OER/HD pattern stream derives per (layer, engine)
// — so every stream is independent and deterministic regardless of
// evaluation order, and a repeated engine name reports identical outcomes.
func runAttacker(ctx context.Context, eng engine.Engine, d *layout.Design, sv *layout.SplitView,
	ref *netlist.Netlist, layer int, onlyPins map[netlist.PinRef]bool, opt Options) (AttackOutcome, error) {
	start := time.Now()
	scopeSeed := layerSeed(opt.Seed, layer)
	ao := AttackOutcome{Attacker: eng.Name()}
	res, err := eng.Attack(ctx, d, sv, engine.Options{Seed: scopeSeed, Ref: ref})
	if err != nil {
		return ao, err
	}
	if err := ctx.Err(); err != nil {
		return ao, err
	}
	ao.Metrics = res.Metrics
	if res.Assignment == nil {
		// Metrics-only engine (crouting): nothing to score.
		ao.Elapsed = time.Since(start)
		return ao, nil
	}
	ccr := scoreCCR(d, sv, ref, res.Assignment, onlyPins)
	rec := metrics.RecoverNetlist(d, sv, res.Assignment)
	cmp := sim.CompareResult{}
	if !rec.HasCombLoop() {
		// The "/patterns" label keeps this stream distinct from the attack
		// stream an engine derives for itself from the same scope seed
		// (DeriveSeed(scope, name)) — the chance baseline must not be
		// scored with the very sequence that generated its assignment.
		rng := rand.New(rand.NewSource(engine.DeriveSeed(scopeSeed, eng.Name()+"/patterns")))
		pats := sim.RandomPatterns(rng, ref.NumPIs(), opt.PatternWords)
		cmp, err = sim.Compare(ref, rec, pats, opt.PatternWords)
		if err != nil {
			return ao, err
		}
	} else {
		// A recovered netlist with loops is unusable: count as fully
		// erroneous.
		cmp.OER, cmp.HD = 1, 0.5
	}
	ao.Scored = true
	ao.Fragments = ccr.Protected
	ao.Correct = ccr.Correct
	ao.CCR = ccr.CCR
	ao.OER = cmp.OER
	ao.HD = cmp.HD
	ao.Elapsed = time.Since(start)
	return ao, nil
}

// scoreCCR scores like metrics.CCR but optionally restricted to fragments
// containing designated protected sink pins.
func scoreCCR(d *layout.Design, sv *layout.SplitView, ref *netlist.Netlist,
	a metrics.Assignment, onlyPins map[netlist.PinRef]bool) metrics.CCRResult {
	if onlyPins == nil {
		return metrics.CCR(d, sv, ref, a)
	}
	// Score only fragments containing the designated protected pins.
	var res metrics.CCRResult
	truth := metrics.TrueAssignment(d, sv, ref)
	for _, fid := range sv.SinkFrags() {
		f := &sv.Frags[fid]
		hit := false
		for _, sp := range f.SinkPins() {
			if sp.Role == layout.RoleSink && onlyPins[sp.Ref] {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		res.Protected++
		got, ok := a[fid]
		if ok && got == truth[fid] && got >= 0 {
			res.Correct++
		}
	}
	if res.Protected > 0 {
		res.CCR = float64(res.Correct) / float64(res.Protected)
	}
	return res
}
