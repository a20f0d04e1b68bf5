package flow

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	defengine "splitmfg/internal/defense/engine"

	"splitmfg/internal/attack/engine"
	"splitmfg/internal/cell"
	"splitmfg/internal/defense/correction"
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
//
// Schema 4: the proximity attack's flow became a primal-dual solve and
// its candidate and commit orders became total, so among equal-cost
// assignments it picks a different one and attack reports changed.
//
// Schema 5: cells no longer wait for their baseline, so a stored cell
// row carries no PPA overheads; they are applied from the cached
// baseline after every job ends. The stored value changed shape, so
// entries of the two shapes are kept apart.
//
// Schema 6: congestion negotiation re-routes only each overflowed edge's
// excess nets and stops when a pass stalls, so every negotiated layout,
// and the reports built on it, changed.
//
// Schema 7: the router's A* frontier became a monotone radix queue that
// pops equal f-scores newest first. Every route is still minimum-cost,
// but ties between equal-cost paths break differently, so layouts, and
// the reports built on them, changed.
const suiteKeySchema = 7

// Suite-level stages, emitted through the same ProgressFunc stream the
// rest of the flow uses.
const (
	// StageSuiteBaseline is emitted once per benchmark when its shared
	// unprotected baseline has been built and analyzed (Bench carries the
	// benchmark name), from inside the build. A baseline served from the
	// disk store emits nothing.
	StageSuiteBaseline Stage = "suite-baseline"
	// StageSuiteCell is emitted once per completed
	// (benchmark, defense, replicate) job (Bench, Detail = defense name,
	// Replicate), whether the cell was computed or served from the cache.
	StageSuiteCell Stage = "suite-cell"
)

// cacheKey identifies everything that determines this benchmark's builds:
// the netlist variant (name + scale), the physical-design settings, and
// the suite master seed the shared baseline is derived from.
func (b Bench) cacheKey(seed int64) string {
	return fmt.Sprintf("%s|scale=%d|lift=%d|util=%d|seed=%d",
		b.Name, b.Scale, b.LiftLayer, b.UtilPercent, seed)
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
//
// opt.Progress, when non-nil, receives one StageSuiteBaseline event per
// benchmark whose baseline is built, one StageAttack event per split
// layer of every computed cell, and one StageSuiteCell event per
// (benchmark, defense, replicate) cell, computed or served from the
// cache, with the defense name as Detail. Calls are serialized.
func EvaluateSuite(ctx context.Context, lib *cell.Library, benches []Bench, opt Options) (SuiteResult, error) {
	opt = opt.withDefaults()
	var out SuiteResult
	basePPA, cellRows, stats, err := evaluateRows(ctx, lib, benches, opt)
	if err != nil {
		return out, err
	}

	// Aggregate in request order: replicates collapse to mean ± std per
	// (benchmark, defense) row, then benchmarks collapse to the suite
	// aggregate per defense.
	D, R := len(opt.Defenses), opt.Replicates
	out.Replicates = R
	for b, sb := range benches {
		br := SuiteBenchResult{Bench: sb.Name, BasePPA: basePPA[b]}
		for d := range opt.Defenses {
			br.Rows = append(br.Rows, suiteRowOf(opt.Defenses[d], opt.Attackers, cellRows[(b*D+d)*R:(b*D+d+1)*R]))
		}
		out.Benches = append(out.Benches, br)
	}
	for d, name := range opt.Defenses {
		out.Aggregate = append(out.Aggregate, aggregateRow(name, opt.Attackers, out.Benches, d))
	}
	out.Cache = stats
	return out, nil
}

// evaluateRows is the one scheduler behind EvaluateSuite and
// EvaluateMatrix. It returns each benchmark's baseline PPA and every
// (benchmark, defense, replicate) cell's row, bench-major with overheads
// applied, plus the cache's counters. opt carries its defaults.
func evaluateRows(ctx context.Context, lib *cell.Library, benches []Bench, opt Options) ([]timing.PPA, []MatrixRow, store.CacheStats, error) {
	var stats store.CacheStats
	if len(benches) == 0 {
		return nil, nil, stats, fmt.Errorf("flow: suite needs at least one benchmark")
	}
	for _, b := range benches {
		if b.Netlist == nil {
			return nil, nil, stats, fmt.Errorf("flow: suite benchmark %q has no netlist", b.Name)
		}
	}
	if _, err := defengine.Resolve(opt.Defenses); err != nil {
		return nil, nil, stats, err
	}
	if _, err := engine.Resolve(opt.Attackers); err != nil {
		return nil, nil, stats, err
	}
	// One emitter for the whole run: concurrent jobs and their nested
	// layer evaluations all funnel through its single mutex, which is
	// what upholds the documented ProgressFunc contract (calls are always
	// serialized, implementations need no locking). Handing the raw
	// opt.Progress to each nested EvaluateSecurity would give every cell
	// its own lock and race the user's callback.
	em := newEmitter(opt.Progress)
	if em != nil {
		opt.Progress = em.emit
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, stats, err
	}

	// Job layout: B baseline jobs followed by B×D×R cell jobs,
	// bench-major. A cell needs its baseline only for the PPA overheads,
	// which are applied once the pool drains, so no job waits on another
	// (except a repeated cell, which waits on its first occurrence's
	// cache entry). Jobs are handed out in index order, so every baseline
	// starts before any cell.
	B, D, R := len(benches), len(opt.Defenses), opt.Replicates
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
			return nil, nil, stats, fmt.Errorf("flow: suite cache dir: %w", err)
		}
	}
	// Capacity for every job's key, the most distinct keys a run can
	// request, so nothing is evicted and the counters stay deterministic.
	cache := store.NewCache(numJobs, disk)

	// Each job attacks its layers and routes its waves within the share of
	// Parallelism the pool grants it.
	runPool(numJobs, opt.Parallelism, func(j, share int) error {
		jopt := opt
		jopt.Parallelism = share
		var err error
		if j < B {
			basePPA[j], err = suiteBaseline(cctx, cache, benches[j], lib, jopt, em)
			return err
		}
		k := j - B
		cellRows[k], err = suiteCell(cctx, cache, benches[k/(D*R)], lib, opt.Defenses[k/R%D], k%R, jopt, em)
		return err
	}, cancel)
	if err := context.Cause(cctx); err != nil {
		return nil, nil, stats, err
	}

	// Every baseline is cached now, so each cell's request for its
	// benchmark's baseline is a hit: the cells issue the same key
	// requests as when they waited for it, and the counters keep their
	// values.
	for k := range cellRows {
		base, err := suiteBaseline(ctx, cache, benches[k/(D*R)], lib, opt, em)
		if err != nil {
			return nil, nil, stats, err
		}
		row := &cellRows[k]
		row.AreaOH, row.PowerOH, row.DelayOH = row.PPA.Overhead(base)
	}
	return basePPA, cellRows, cache.Stats(), nil
}

// suiteBaseline builds (or reuses) one benchmark's unprotected baseline and
// returns its PPA — the anchor for every defense row's overheads, computed
// once per benchmark across the whole run, routing with opt.Parallelism
// workers.
func suiteBaseline(ctx context.Context, cache *store.Cache, b Bench,
	lib *cell.Library, opt Options, em *emitter) (timing.PPA, error) {
	key := "baseline|" + b.cacheKey(opt.Seed) + "|route=" + routeStrategyKey(opt.RouteStrategy)
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
		base, err := correction.BuildOriginal(b.Netlist, lib, buildOptions(b, opt, nil, 0, ""))
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
// the defense built with the replicate's derived seed and attacked by the
// full panel, all within opt.Parallelism workers. The row, cached or stored,
// carries no overheads; evaluateRows applies them once every baseline is
// built.
func suiteCell(ctx context.Context, cache *store.Cache, b Bench, lib *cell.Library,
	defense string, rep int, opt Options, em *emitter) (MatrixRow, error) {
	repOpt := opt
	repOpt.Seed = replicateSeed(opt.Seed, rep)
	key := fmt.Sprintf("cell|%s|route=%s|defense=%s|fraction=%g|oer=%g|attackers=%s|layers=%v|words=%d|seed=%d",
		b.cacheKey(opt.Seed), routeStrategyKey(opt.RouteStrategy), defense, opt.Fraction, opt.TargetOER,
		strings.Join(opt.Attackers, ","), opt.SplitLayers, opt.PatternWords, repOpt.Seed)
	decode := func(raw []byte) (any, error) {
		var row MatrixRow
		err := json.Unmarshal(raw, &row)
		return row, err
	}
	v, _, err := cache.Do(ctx, key, decode, func() (any, error) {
		return evaluateDefense(ctx, lib, b, defense, repOpt)
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
