package flow

import (
	"context"
	"runtime"
	"time"

	defengine "splitmfg/internal/defense/engine"

	"splitmfg/internal/attack/engine"
	"splitmfg/internal/cell"
	"splitmfg/internal/defense/correction"
	"splitmfg/internal/netlist"
	"splitmfg/internal/route"
	"splitmfg/internal/timing"
)

// StageDefense is emitted once per distinct defense that completes during
// a matrix evaluation (Detail carries the defense name). A name requested
// twice is computed — and reported — once; a failed build emits no event,
// the error surfaces from EvaluateMatrix instead.
const StageDefense Stage = "defense"

// MatrixOptions parameterizes EvaluateMatrix.
type MatrixOptions struct {
	Defenses     []string     // defense-engine names (rows; default "randomize-correction")
	Attackers    []string     // attacker-engine names (columns; default "proximity")
	SplitLayers  []int        // layers each pair is attacked at (default M3,M4,M5)
	Seed         int64        // master seed; every (defense, attacker, layer) derives its own stream
	PatternWords int          // 64-pattern words for OER/HD (default 256)
	Parallelism  int          // concurrent builds (baseline and rows), split further into layer attacks and route waves; 0 = GOMAXPROCS, 1 = serial
	LiftLayer    int          // lift layer for lifting defenses (default 6)
	UtilPercent  int          // placement utilization (default 70)
	TargetOER    float64      // randomization stop criterion (default 0.999)
	Fraction     float64      // perturbed fraction for prior-art defenses (0 = published-ish defaults)
	Progress     ProgressFunc // optional per-defense / per-layer completion events

	// RouteStrategy selects flat or hierarchical batched routing for every
	// build (zero = auto, resolved per design by die area).
	RouteStrategy route.Strategy
}

func (o MatrixOptions) withDefaults() MatrixOptions {
	if len(o.Defenses) == 0 {
		o.Defenses = []string{DefaultDefense}
	}
	if len(o.Attackers) == 0 {
		o.Attackers = []string{DefaultAttacker}
	}
	if len(o.SplitLayers) == 0 {
		o.SplitLayers = DefaultSplitLayers()
	}
	if o.PatternWords == 0 {
		o.PatternWords = DefaultPatternWords
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// MatrixRow is one defense's full outcome: its PPA cost relative to the
// unprotected baseline plus the attacker panel's results. The cells of
// the paper's Tables 4/5 cross product are Security.PerAttacker (one
// AttackerResult per requested attacker, in request order); Security also
// carries the full per-layer detail.
type MatrixRow struct {
	Defense  string
	Swaps    int // connectivity exchanges the scheme performed
	PPA      timing.PPA
	AreaOH   float64 // percent vs the unprotected baseline
	PowerOH  float64
	DelayOH  float64
	Metrics  map[string]float64 // scheme-specific extras
	Security SecurityResult
	Elapsed  time.Duration
}

// MatrixResult is the defense×attacker cross matrix over one design.
type MatrixResult struct {
	BasePPA timing.PPA  // the unprotected baseline's PPA
	Rows    []MatrixRow // one per requested defense, in request order
}

// EvaluateMatrix builds every requested defense on the netlist and runs
// every requested attacker against it at each split layer — the full cross
// product behind the paper's Tables 4 and 5. Rows are defenses, columns are
// attackers, and each cell averages CCR/OER/HD over the split layers; each
// row also carries the defense's PPA overhead against the unprotected
// baseline.
//
// Every (defense, attacker, layer) triple derives its own independent RNG
// stream from the master seed (FNV label mixing + splitmix64), and rows are
// merged in request order, so the result — and its serialized MatrixReport
// — is byte-identical at every parallelism level. A defense name requested
// twice is computed once (per-matrix memo); an attacker requested twice
// within a layer is deduplicated by the attack engine's per-layer memo.
func EvaluateMatrix(ctx context.Context, nl *netlist.Netlist, lib *cell.Library, opt MatrixOptions) (MatrixResult, error) {
	opt = opt.withDefaults()
	var out MatrixResult
	if _, err := defengine.Resolve(opt.Defenses); err != nil {
		return out, err
	}
	if _, err := engine.Resolve(opt.Attackers); err != nil {
		return out, err
	}
	// One emitter for the whole matrix: concurrent defense rows and their
	// nested layer evaluations all funnel through its single mutex, which
	// is what upholds the documented ProgressFunc contract (calls are
	// always serialized, implementations need no locking). Handing the
	// raw opt.Progress to each nested EvaluateSecurity would give every
	// row its own lock and race the user's callback.
	em := newEmitter(opt.Progress)
	if em != nil {
		opt.Progress = em.emit
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}

	// Distinct defenses only: the memo key is the defense name, because a
	// defense is a deterministic function of (netlist, seed) and the seed
	// is derived from the name.
	distinct := make([]string, 0, len(opt.Defenses))
	seen := map[string]bool{}
	for _, name := range opt.Defenses {
		if !seen[name] {
			seen[name] = true
			distinct = append(distinct, name)
		}
	}

	// Task 0 builds the unprotected baseline and task i the i-th distinct
	// defense. Rows need the baseline only for their PPA deltas, which are
	// applied once the pool drains, so no task waits on another. Each task
	// attacks its layers and routes its waves within the share of
	// Parallelism the pool grants it.
	rows := make([]MatrixRow, len(distinct))
	errs := runPool(1+len(distinct), opt.Parallelism, func(i, share int) error {
		if i == 0 {
			var err error
			out.BasePPA, err = buildBaseline(nl, lib, share, opt)
			return err
		}
		row, err := evaluateDefense(ctx, nl, lib, distinct[i-1], share, opt)
		if err != nil {
			return err
		}
		rows[i-1] = row
		em.emit(Event{Stage: StageDefense, Detail: row.Defense, Elapsed: row.Elapsed})
		return nil
	}, nil)
	// The baseline's error first, then the rows' in request order.
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}

	byName := make(map[string]*MatrixRow, len(distinct))
	for i := range rows {
		row := &rows[i]
		row.AreaOH, row.PowerOH, row.DelayOH = row.PPA.Overhead(out.BasePPA)
		byName[row.Defense] = row
	}
	for _, name := range opt.Defenses {
		out.Rows = append(out.Rows, *byName[name])
	}
	return out, nil
}

// buildBaseline builds and analyzes the unprotected layout that anchors
// every matrix row's PPA overheads, routing with parallelism workers.
func buildBaseline(nl *netlist.Netlist, lib *cell.Library, parallelism int, opt MatrixOptions) (timing.PPA, error) {
	base, err := correction.BuildOriginal(nl, lib, correction.Options{
		LiftLayer: opt.LiftLayer, UtilPercent: opt.UtilPercent, Seed: opt.Seed,
		RouteOpt: route.Options{Parallelism: parallelism, Strategy: opt.RouteStrategy},
	})
	if err != nil {
		return timing.PPA{}, err
	}
	return timing.AnalyzeDesign(base, lib)
}

// evaluateDefense computes one matrix row: build the defense's layout with
// a name-derived seed, analyze its PPA, then run the full attacker panel
// over the split layers with an independent name-derived evaluation seed.
// parallelism bounds both the build's route workers and its concurrent
// layer attacks. The caller fills in the overheads against its baseline.
func evaluateDefense(ctx context.Context, nl *netlist.Netlist, lib *cell.Library,
	name string, parallelism int, opt MatrixOptions) (MatrixRow, error) {
	start := time.Now()
	row := MatrixRow{Defense: name}
	def, _ := defengine.Lookup(name) // validated up front in EvaluateMatrix
	// Every defense receives the same scope seed (the defengine.Options
	// contract, mirroring attack engines): each scheme derives its own
	// streams by label, and the shared "randomize" label is what keeps
	// naive-lifted protecting exactly randomize-correction's sink set.
	prot, err := def.Protect(ctx, nl, lib, defengine.Options{
		Seed:             defengine.DeriveSeed(opt.Seed, "defense"),
		LiftLayer:        opt.LiftLayer,
		UtilPercent:      opt.UtilPercent,
		TargetOER:        opt.TargetOER,
		Fraction:         opt.Fraction,
		RouteParallelism: parallelism,
		RouteStrategy:    opt.RouteStrategy,
	})
	if err != nil {
		return row, err
	}
	row.Swaps = prot.Swaps
	row.Metrics = prot.Metrics

	// Lifting schemes are scored on the restored design against the
	// original netlist (the erroneous FEOL netlist is not what the chip
	// computes after BEOL restoration); flat schemes on the design itself.
	if prot.Corr != nil {
		row.PPA, err = timing.AnalyzeRestored(prot.Design, nl, prot.Design.Masters, lib)
	} else {
		row.PPA, err = timing.AnalyzeDesign(prot.Design, lib)
	}
	if err != nil {
		return row, err
	}

	sec, err := EvaluateSecurity(ctx, prot.Design, nl, EvalOptions{
		SplitLayers:  opt.SplitLayers,
		Attackers:    opt.Attackers,
		OnlyPins:     prot.ProtectedPins,
		Seed:         defengine.DeriveSeed(opt.Seed, "matrix/"+name),
		PatternWords: opt.PatternWords,
		Parallelism:  parallelism,
		Progress:     opt.Progress,
	})
	if err != nil {
		return row, err
	}
	row.Security = sec
	row.Elapsed = time.Since(start)
	return row, nil
}
