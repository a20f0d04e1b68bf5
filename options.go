package splitmfg

import (
	"splitmfg/internal/flow"
	"splitmfg/internal/route"
)

// Option configures a Pipeline.
type Option func(*pipelineConfig)

// pipelineConfig is the flow's design-independent options plus the three
// physical-design settings that default per design (Pipeline.bench).
type pipelineConfig struct {
	flow.Options
	liftLayer   int
	utilPercent int
	budget      float64
}

// defaultSeed is the master seed used when none is set — the one option
// whose library default is not its zero value. JobRequest.CacheKey
// normalizes against it so an omitted seed and an explicit default seed
// share one cache identity.
const defaultSeed = 1

func defaultPipelineConfig() pipelineConfig {
	return pipelineConfig{Options: flow.Options{Seed: defaultSeed}}
}

// WithLiftLayer sets the metal layer the randomized nets are lifted to
// (default: 6 for ISCAS designs, 8 for superblue). The correction cells'
// pins sit on that layer, so only layers the cell library has correction
// cells for are valid: M6 and M8 (paper Sec. 4). Validate rejects any
// other non-zero layer.
func WithLiftLayer(layer int) Option {
	return func(c *pipelineConfig) { c.liftLayer = layer }
}

// WithUtilization sets the placement utilization percentage (default: 70
// for ISCAS, published per-design values for superblue). The placer
// accepts at most 95%; Validate rejects anything above.
func WithUtilization(percent int) Option {
	return func(c *pipelineConfig) { c.utilPercent = percent }
}

// WithSeed sets the master seed. Every derived stream (randomization,
// placement jitter, per-layer attack patterns) is a deterministic function
// of it, so a fixed seed reproduces byte-identical reports.
func WithSeed(seed int64) Option {
	return func(c *pipelineConfig) { c.Seed = seed }
}

// WithPPABudget sets the allowed power/delay overhead percentage for the
// escalation loop (default: 20 for ISCAS, 5 for superblue).
func WithPPABudget(percent float64) Option {
	return func(c *pipelineConfig) { c.budget = percent }
}

// WithTargetOER sets the randomization stop criterion (default 0.999).
func WithTargetOER(oer float64) Option {
	return func(c *pipelineConfig) { c.TargetOER = oer }
}

// WithPatternWords sets the simulation depth for OER/HD metrics in
// 64-pattern words (default 256 = 16384 patterns).
func WithPatternWords(words int) Option {
	return func(c *pipelineConfig) { c.PatternWords = words }
}

// WithSplitLayers sets the split layers Evaluate attacks and averages over
// (default M3, M4, M5 — the paper's Tables 4 and 5 setup). A split needs
// metal above it, so valid layers run from M1 to M9 of the ten-layer
// stack; Validate rejects the rest.
func WithSplitLayers(layers ...int) Option {
	return func(c *pipelineConfig) { c.SplitLayers = append([]int(nil), layers...) }
}

// WithAttackers selects the attacker engines Evaluate runs at every split
// layer (default: "proximity", the paper's network-flow attack). Names
// resolve against the engine registry — see Attackers() for the list; an
// unknown name fails Evaluate with an error naming the registry. The first
// engine that proposes an assignment is the primary attacker whose
// CCR/OER/HD become the report's headline numbers; every engine gets its
// own per-layer and averaged sections.
func WithAttackers(names ...string) Option {
	return func(c *pipelineConfig) { c.Attackers = append([]string(nil), names...) }
}

// WithDefenses selects the defense schemes Matrix builds and attacks
// (default: "randomize-correction", the paper's proposed scheme). Names
// resolve against the defense-engine registry — see Defenses() for the
// list; an unknown name fails Matrix with an error naming the registry.
// Each defense becomes one row of the matrix, in the given order.
func WithDefenses(names ...string) Option {
	return func(c *pipelineConfig) { c.Defenses = append([]string(nil), names...) }
}

// WithFraction sets the perturbed fraction the prior-art defense schemes
// use (defense-specific meaning; default: each scheme's published-ish
// value, 0.15).
func WithFraction(f float64) Option {
	return func(c *pipelineConfig) { c.Fraction = f }
}

// WithReplicates sets how many seed replicates Suite runs per
// (benchmark, defense) cell (default 1). Each replicate derives its own
// splitmix64 seed stream from the master seed — replicate 0 is the master
// seed itself — and the suite report carries mean ± standard deviation
// over the replicates, like the paper's averaged-run tables.
func WithReplicates(n int) Option {
	return func(c *pipelineConfig) { c.Replicates = n }
}

// WithMaxAttempts caps the Protect escalation loop (default 6). 1 runs a
// single randomize-and-build pass with no escalation.
func WithMaxAttempts(n int) Option {
	return func(c *pipelineConfig) { c.MaxAttempts = n }
}

// WithParallelism sets the one worker budget every entry point runs
// within (default: GOMAXPROCS; 1 forces serial work). Evaluate attacks up
// to that many split layers at once; Matrix and Suite run up to that many
// builds at once and give each an equal part of the budget for its own
// layer attacks. Every build places and routes on one goroutine, so
// layouts, and every report derived from them, are byte-identical at
// every parallelism level.
func WithParallelism(n int) Option {
	return func(c *pipelineConfig) { c.Parallelism = n }
}

// WithRouteStrategy selects how each place-and-route explores the routing
// grid: "flat" routes every net with a single-level search, "hier" runs a
// coarse tile-grid pass first and confines each net's fine search to its
// planned corridor (much faster on large dies), and "auto" (the default)
// picks per design by die area — ISCAS-class dies route flat, superblue-
// class dies route hierarchically. Unlike WithParallelism the strategy
// changes the routed layouts (both are valid), so it is part of every
// cache identity. An unknown name fails validation.
func WithRouteStrategy(name string) Option {
	return func(c *pipelineConfig) { c.RouteStrategy = route.Strategy(name) }
}

// WithCacheDir backs Suite's result cache with a disk-based
// content-addressed store rooted at dir (created if absent): every
// completed baseline and (benchmark, defense, replicate) cell is
// checkpointed with an atomic fsync'd write, so a killed suite run rerun
// with the same directory recomputes only the unfinished cells and still
// produces a byte-identical SuiteReport, and separate runs — or an
// smserve sharing the directory — reuse each other's cells. Corrupt or
// stale entries are quarantined and recomputed, never trusted. Empty
// (the default) keeps the cache memory-only.
func WithCacheDir(dir string) Option {
	return func(c *pipelineConfig) { c.CacheDir = dir }
}

// WithProgress installs a progress hook receiving stage-completion events
// with per-stage timings.
func WithProgress(fn ProgressFunc) Option {
	return func(c *pipelineConfig) { c.Progress = fn }
}
