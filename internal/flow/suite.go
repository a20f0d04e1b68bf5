package flow

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"

	defengine "splitmfg/internal/defense/engine"

	"splitmfg/internal/attack/engine"
	"splitmfg/internal/cell"
	"splitmfg/internal/defense/correction"
	"splitmfg/internal/netlist"
	"splitmfg/internal/route"
	"splitmfg/internal/store"
	"splitmfg/internal/timing"
)

// suiteKeySchema versions the suite's disk-store key format (the
// baseline|/cell| strings below). Bump it whenever a result-affecting
// algorithm changes without changing the key bytes, so stale entries
// from older binaries are quarantined instead of trusted.
//
// Schema 2: keys gained the route strategy (|route=...), and the
// hierarchical router changed large-die routings — entries written by
// pre-strategy binaries (schema 1) carried no strategy and cannot be
// trusted against either flat or hier requests.
//
// Schema 3: the router's A* took a layer-aware lower bound. Every route
// is still minimum-cost, but ties between equal-cost paths break
// differently, so layouts, and the reports built on them, changed.
const suiteKeySchema = 3

// Suite-level stages, emitted through the same ProgressFunc stream the
// rest of the flow uses.
const (
	// StageSuiteBaseline is emitted once per benchmark when its shared
	// unprotected baseline has been built and analyzed (Bench carries the
	// benchmark name). Replicated or repeated requests reuse the cached
	// baseline and emit nothing.
	StageSuiteBaseline Stage = "suite-baseline"
	// StageSuiteCell is emitted once per completed
	// (benchmark, defense, replicate) job (Bench, Detail = defense name,
	// Replicate), whether the cell was computed or served from the cache.
	StageSuiteCell Stage = "suite-cell"
)

// SuiteBenchmark is one design entering a suite evaluation, together with
// the physical-design settings the suite builds it under. Scale identifies
// the netlist variant in cache keys (the superblue scale divisor; 1 for
// ISCAS designs, whose generator ignores scale).
type SuiteBenchmark struct {
	Name        string
	Netlist     *netlist.Netlist
	Scale       int
	LiftLayer   int
	UtilPercent int
}

// cacheKey identifies everything that determines this benchmark's builds:
// the netlist variant (name + scale), the physical-design settings, and
// the suite master seed the shared baseline is derived from.
func (b SuiteBenchmark) cacheKey(seed int64) string {
	return fmt.Sprintf("%s|scale=%d|lift=%d|util=%d|seed=%d",
		b.Name, b.Scale, b.LiftLayer, b.UtilPercent, seed)
}

// SuiteOptions parameterizes EvaluateSuite.
type SuiteOptions struct {
	Benchmarks   []SuiteBenchmark // designs to sweep (rows of the paper's Tables 4/5)
	Defenses     []string         // defense-engine names (default "randomize-correction")
	Attackers    []string         // attacker-engine names (default "proximity")
	SplitLayers  []int            // layers each pair is attacked at (default M3,M4,M5)
	Seed         int64            // master seed; every replicate derives its own stream
	Replicates   int              // seed replicates per (benchmark, defense) cell (default 1)
	PatternWords int              // 64-pattern words for OER/HD (default 256)
	Parallelism  int              // concurrent jobs, split further into layer attacks and route waves; 0 = GOMAXPROCS, 1 = serial
	TargetOER    float64          // randomization stop criterion (default 0.999)
	Fraction     float64          // perturbed fraction for prior-art defenses
	Progress     ProgressFunc     // optional suite-level completion events

	// RouteStrategy selects flat or hierarchical batched routing for every
	// build in the suite (zero = auto, resolved per design by die area).
	// Unlike Parallelism it changes routed results, so it is part of every
	// cache key.
	RouteStrategy route.Strategy

	// CacheDir, when non-empty, backs the suite cache with a disk-based
	// content-addressed store (internal/store): every completed baseline
	// and cell is checkpointed, so a killed run rerun with the same dir
	// recomputes only the unfinished cells and produces a byte-identical
	// result. Empty keeps the cache memory-only.
	CacheDir string
}

func (o SuiteOptions) withDefaults() SuiteOptions {
	if len(o.Defenses) == 0 {
		o.Defenses = []string{DefaultDefense}
	}
	if len(o.Attackers) == 0 {
		o.Attackers = []string{DefaultAttacker}
	}
	if len(o.SplitLayers) == 0 {
		o.SplitLayers = DefaultSplitLayers()
	}
	if o.Replicates <= 0 {
		o.Replicates = DefaultReplicates
	}
	if o.PatternWords == 0 {
		o.PatternWords = DefaultPatternWords
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// routeStrategyKey normalizes the route strategy for cache keys: the zero
// value and an explicit "auto" are the same request.
func routeStrategyKey(s route.Strategy) string {
	if s == "" {
		return string(route.StrategyAuto)
	}
	return string(s)
}

// replicateSeed derives the master seed of one seed replicate (splitmix64
// via the engine seed-derivation chain). Replicate 0 is the master seed
// itself, so a single-replicate suite cell reproduces the corresponding
// EvaluateMatrix row byte for byte.
func replicateSeed(seed int64, rep int) int64 {
	if rep == 0 {
		return seed
	}
	return engine.DeriveSeed(seed, "suite/replicate/"+strconv.Itoa(rep))
}

// CacheStats is the suite cache's serialized two-way form: Hits are
// repeat key requests, Misses first-time key requests, whether they were
// computed or served from the disk store. Both are deterministic for a
// given suite configuration — every job issues a fixed set of key
// requests, and the first request per distinct key is either a disk hit
// or a miss — so SuiteResult.Report folds the cache's disk hits into
// Misses and the report is byte-identical whether a run was fresh,
// resumed, or diskless.
type CacheStats struct {
	Hits   int `json:"hits"`
	Misses int `json:"misses"`
}

// Dist is a mean ± standard deviation pair: over seed replicates in
// per-benchmark rows, over benchmarks in the suite aggregate. Std is the
// population deviation (the replicates are the whole population of the
// run, not a sample of a larger one).
type Dist struct {
	Mean, Std float64
}

// distOf aggregates in slice order with explicit float64() rounding on the
// squared terms, so results are byte-identical across architectures (no
// FMA contraction) and independent of evaluation parallelism.
func distOf(xs []float64) Dist {
	n := float64(len(xs))
	if n == 0 {
		return Dist{}
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	mean := sum / n
	varsum := 0.0
	for _, x := range xs {
		d := x - mean
		varsum += float64(d * d) // float64(): no FMA, see timing.LoadsFromDesign
	}
	return Dist{Mean: mean, Std: math.Sqrt(varsum / n)}
}

// SuiteCell is one attacker's outcome against one defense, aggregated over
// the suite's seed replicates (per-benchmark rows) or over benchmarks (the
// suite aggregate). CCR/OER/HD are fractions, like SecurityResult.
type SuiteCell struct {
	Attacker     string
	Scored       bool // every aggregated run scored an assignment
	CCR, OER, HD Dist
}

// SuiteRow is one defense's aggregated outcome: PPA overheads (percent vs
// the benchmark's unprotected baseline) and the attacker panel.
type SuiteRow struct {
	Defense                  string
	Swaps                    Dist
	AreaOH, PowerOH, DelayOH Dist
	Cells                    []SuiteCell // one per requested attacker, in request order
}

// SuiteBenchResult is one benchmark's defense rows, each aggregated over
// the seed replicates, plus the shared unprotected baseline's PPA.
type SuiteBenchResult struct {
	Bench   string
	BasePPA timing.PPA
	Rows    []SuiteRow // one per requested defense, in request order
}

// SuiteResult is the full multi-benchmark, multi-seed matrix: per-benchmark
// rows plus the cross-benchmark aggregate behind the paper's Tables 4/5
// bottom lines. Aggregate rows average the per-benchmark replicate means,
// with Std measuring the spread across benchmarks.
type SuiteResult struct {
	Benches    []SuiteBenchResult // one per requested benchmark, in request order
	Aggregate  []SuiteRow         // one per requested defense, across benchmarks
	Cache      store.CacheStats
	Replicates int
}

// EvaluateSuite fans the (benchmark × defense × attacker × seed-replicate)
// cross product through one bounded worker pool with a content-addressed
// result cache (store.Cache), so shared cells — each benchmark's
// unprotected baseline, a defense requested twice — are computed once
// across the whole suite rather than once per design.
//
// Each replicate derives its own splitmix64 seed stream from the master
// seed (replicate 0 is the master seed itself), every job writes into a
// preallocated slot, and aggregation runs in request order, so the result
// — and its serialized SuiteReport — is byte-identical at every
// parallelism level. The per-benchmark baseline is keyed at the master
// seed: replicates vary the defense and attack randomness against a fixed
// reference layout.
func EvaluateSuite(ctx context.Context, lib *cell.Library, opt SuiteOptions) (SuiteResult, error) {
	opt = opt.withDefaults()
	var out SuiteResult
	if len(opt.Benchmarks) == 0 {
		return out, fmt.Errorf("flow: suite needs at least one benchmark")
	}
	for _, b := range opt.Benchmarks {
		if b.Netlist == nil {
			return out, fmt.Errorf("flow: suite benchmark %q has no netlist", b.Name)
		}
	}
	if _, err := defengine.Resolve(opt.Defenses); err != nil {
		return out, err
	}
	if _, err := engine.Resolve(opt.Attackers); err != nil {
		return out, err
	}
	em := newEmitter(opt.Progress)
	if err := ctx.Err(); err != nil {
		return out, err
	}

	// Job layout: B baseline jobs (scheduled first so every benchmark's
	// reference build starts early) followed by B×D×R cell jobs,
	// bench-major. Cell jobs that reach an unbuilt baseline block on its
	// cache entry, so no explicit dependency tracking is needed.
	B, D, R := len(opt.Benchmarks), len(opt.Defenses), opt.Replicates
	numJobs := B + B*D*R
	cellRows := make([]MatrixRow, B*D*R)
	basePPA := make([]timing.PPA, B)

	// The first job error cancels the remaining jobs; context.Cause
	// preserves it through the pool teardown. An outer cancellation
	// surfaces as its own cause.
	cctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	var disk *store.Store
	if opt.CacheDir != "" {
		var err error
		disk, err = store.Open(opt.CacheDir, store.Options{KeySchema: suiteKeySchema})
		if err != nil {
			return out, fmt.Errorf("flow: suite cache dir: %w", err)
		}
	}
	// Capacity for every job's key, the most distinct keys a suite can
	// request, so nothing is evicted and the counters stay deterministic.
	cache := store.NewCache(numJobs, disk)

	// Each job attacks its layers and routes its waves within the share of
	// Parallelism the pool grants it.
	runJob := func(j, share int) error {
		if j < B {
			var err error
			basePPA[j], err = suiteBaseline(cctx, cache, opt.Benchmarks[j], lib, opt.Seed, share, opt.RouteStrategy, em)
			return err
		}
		k := j - B
		b, rem := k/(D*R), k%(D*R)
		d, r := rem/R, rem%R
		var err error
		cellRows[k], err = suiteCell(cctx, cache, opt.Benchmarks[b], lib, opt.Defenses[d], r, share, opt, em)
		return err
	}

	// Jobs are handed out in index order, so every baseline starts before
	// any cell job.
	runPool(numJobs, opt.Parallelism, runJob, cancel)
	if err := context.Cause(cctx); err != nil {
		return out, err
	}

	// Aggregate in request order: replicates collapse to mean ± std per
	// (benchmark, defense) row, then benchmarks collapse to the suite
	// aggregate per defense.
	out.Replicates = R
	for b, sb := range opt.Benchmarks {
		br := SuiteBenchResult{Bench: sb.Name, BasePPA: basePPA[b]}
		for d := range opt.Defenses {
			reps := make([]MatrixRow, R)
			for r := 0; r < R; r++ {
				reps[r] = cellRows[(b*D+d)*R+r]
			}
			br.Rows = append(br.Rows, suiteRowOf(opt.Defenses[d], opt.Attackers, reps))
		}
		out.Benches = append(out.Benches, br)
	}
	for d, name := range opt.Defenses {
		out.Aggregate = append(out.Aggregate, aggregateRow(name, opt.Attackers, out.Benches, d))
	}
	out.Cache = cache.Stats()
	return out, nil
}

// suiteBaseline builds (or reuses) one benchmark's unprotected baseline and
// returns its PPA — the anchor for every defense row's overheads, computed
// once per benchmark across the whole suite, routing with parallelism
// workers.
func suiteBaseline(ctx context.Context, cache *store.Cache, b SuiteBenchmark,
	lib *cell.Library, seed int64, parallelism int, strat route.Strategy, em *emitter) (timing.PPA, error) {
	key := "baseline|" + b.cacheKey(seed) + "|route=" + routeStrategyKey(strat)
	decode := func(raw []byte) (any, error) {
		var ppa timing.PPA
		err := json.Unmarshal(raw, &ppa)
		return ppa, err
	}
	v, _, err := cache.Do(ctx, key, decode, func() (any, error) {
		start := time.Now()
		if err := ctx.Err(); err != nil {
			return timing.PPA{}, err
		}
		base, err := correction.BuildOriginal(b.Netlist, lib, correction.Options{
			LiftLayer: b.LiftLayer, UtilPercent: b.UtilPercent, Seed: seed,
			RouteOpt: route.Options{Parallelism: parallelism, Strategy: strat},
		})
		if err != nil {
			return timing.PPA{}, err
		}
		ppa, err := timing.AnalyzeDesign(base, lib)
		if err != nil {
			return timing.PPA{}, err
		}
		em.emit(Event{Stage: StageSuiteBaseline, Bench: b.Name, Elapsed: time.Since(start)})
		return ppa, nil
	})
	if err != nil {
		return timing.PPA{}, err
	}
	return v.(timing.PPA), nil
}

// suiteCell computes (or reuses) one (benchmark, defense, replicate) cell:
// the defense built with the replicate's derived seed, analyzed against the
// benchmark's shared baseline, and attacked by the full panel, all within
// parallelism workers.
func suiteCell(ctx context.Context, cache *store.Cache, b SuiteBenchmark, lib *cell.Library,
	defense string, rep, parallelism int, opt SuiteOptions, em *emitter) (MatrixRow, error) {
	base, err := suiteBaseline(ctx, cache, b, lib, opt.Seed, parallelism, opt.RouteStrategy, em)
	if err != nil {
		return MatrixRow{}, err
	}
	repSeed := replicateSeed(opt.Seed, rep)
	key := fmt.Sprintf("cell|%s|route=%s|defense=%s|fraction=%g|oer=%g|attackers=%s|layers=%v|words=%d|seed=%d",
		b.cacheKey(opt.Seed), routeStrategyKey(opt.RouteStrategy), defense, opt.Fraction, opt.TargetOER,
		strings.Join(opt.Attackers, ","), opt.SplitLayers, opt.PatternWords, repSeed)
	decode := func(raw []byte) (any, error) {
		var row MatrixRow
		err := json.Unmarshal(raw, &row)
		return row, err
	}
	v, _, err := cache.Do(ctx, key, decode, func() (any, error) {
		row, err := evaluateDefense(ctx, b.Netlist, lib, defense, parallelism, MatrixOptions{
			Attackers:     opt.Attackers,
			SplitLayers:   opt.SplitLayers,
			Seed:          repSeed,
			PatternWords:  opt.PatternWords,
			LiftLayer:     b.LiftLayer,
			UtilPercent:   b.UtilPercent,
			TargetOER:     opt.TargetOER,
			Fraction:      opt.Fraction,
			RouteStrategy: opt.RouteStrategy,
		})
		if err != nil {
			return MatrixRow{}, err
		}
		row.AreaOH, row.PowerOH, row.DelayOH = row.PPA.Overhead(base)
		return row, nil
	})
	if err != nil {
		return MatrixRow{}, err
	}
	row := v.(MatrixRow)
	em.emit(Event{Stage: StageSuiteCell, Bench: b.Name, Replicate: rep,
		Detail: defense, Elapsed: row.Elapsed})
	return row, nil
}

// suiteRowOf collapses one (benchmark, defense)'s replicate rows to
// mean ± std, per attacker cell.
func suiteRowOf(defense string, attackers []string, reps []MatrixRow) SuiteRow {
	row := SuiteRow{Defense: defense}
	swaps := make([]float64, len(reps))
	area := make([]float64, len(reps))
	power := make([]float64, len(reps))
	delay := make([]float64, len(reps))
	for r, mr := range reps {
		swaps[r] = float64(mr.Swaps)
		area[r], power[r], delay[r] = mr.AreaOH, mr.PowerOH, mr.DelayOH
	}
	row.Swaps, row.AreaOH = distOf(swaps), distOf(area)
	row.PowerOH, row.DelayOH = distOf(power), distOf(delay)
	for a, name := range attackers {
		cell := SuiteCell{Attacker: name, Scored: true}
		ccr := make([]float64, len(reps))
		oer := make([]float64, len(reps))
		hd := make([]float64, len(reps))
		for r, mr := range reps {
			ar := mr.Security.PerAttacker[a]
			cell.Scored = cell.Scored && ar.Scored
			ccr[r], oer[r], hd[r] = ar.CCR, ar.OER, ar.HD
		}
		cell.CCR, cell.OER, cell.HD = distOf(ccr), distOf(oer), distOf(hd)
		row.Cells = append(row.Cells, cell)
	}
	return row
}

// aggregateRow collapses one defense's per-benchmark means into the
// cross-benchmark aggregate: Mean averages the benchmark means, Std is the
// spread across benchmarks.
func aggregateRow(defense string, attackers []string, benches []SuiteBenchResult, d int) SuiteRow {
	row := SuiteRow{Defense: defense}
	n := len(benches)
	pick := func(f func(SuiteRow) float64) Dist {
		xs := make([]float64, n)
		for b, br := range benches {
			xs[b] = f(br.Rows[d])
		}
		return distOf(xs)
	}
	row.Swaps = pick(func(r SuiteRow) float64 { return r.Swaps.Mean })
	row.AreaOH = pick(func(r SuiteRow) float64 { return r.AreaOH.Mean })
	row.PowerOH = pick(func(r SuiteRow) float64 { return r.PowerOH.Mean })
	row.DelayOH = pick(func(r SuiteRow) float64 { return r.DelayOH.Mean })
	for a, name := range attackers {
		cell := SuiteCell{Attacker: name, Scored: true}
		ccr := make([]float64, n)
		oer := make([]float64, n)
		hd := make([]float64, n)
		for b, br := range benches {
			bc := br.Rows[d].Cells[a]
			cell.Scored = cell.Scored && bc.Scored
			ccr[b], oer[b], hd[b] = bc.CCR.Mean, bc.OER.Mean, bc.HD.Mean
		}
		cell.CCR, cell.OER, cell.HD = distOf(ccr), distOf(oer), distOf(hd)
		row.Cells = append(row.Cells, cell)
	}
	return row
}
