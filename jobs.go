package splitmfg

import (
	"context"
	"encoding/json"
	"fmt"

	"splitmfg/internal/flow"
	"splitmfg/internal/route"
)

// JobKind selects which Pipeline entry point a JobRequest runs.
type JobKind string

// The five job kinds the evaluation server accepts.
const (
	// JobProtect runs the full Fig.-2 protection flow (Pipeline.Protect)
	// and reports the PPA accounting as a ProtectReport.
	JobProtect JobKind = "protect"
	// JobAttack evaluates the attacker panel against the unprotected
	// baseline layout (Pipeline.Attack), reporting a SecurityReport.
	JobAttack JobKind = "attack"
	// JobEvaluate builds the proposed scheme's protected layout directly
	// (Pipeline.Randomized) and evaluates the attacker panel against it —
	// the attacker's-perspective fast path, reporting a SecurityReport.
	JobEvaluate JobKind = "evaluate"
	// JobMatrix runs the defense×attacker cross product on one benchmark
	// (Pipeline.Matrix), reporting a MatrixReport.
	JobMatrix JobKind = "matrix"
	// JobSuite fans the (benchmark × defense × attacker × replicate) cross
	// product through the suite scheduler (Pipeline.Suite), reporting a
	// SuiteReport.
	JobSuite JobKind = "suite"
)

// JobKinds lists the accepted job kinds in documentation order.
func JobKinds() []JobKind {
	return []JobKind{JobProtect, JobAttack, JobEvaluate, JobMatrix, JobSuite}
}

// JobRequest is the serializable description of one evaluation job: a job
// kind plus the knobs that mirror the Pipeline's functional options, with
// JSON tags forming the evaluation server's wire format. The zero value of
// every field except Kind and the benchmark selection means "the library
// default", exactly like passing the zero value to the corresponding
// With* option. Parallelism is the job's one worker budget (a server
// grants at most its slot share); it never changes the report, so it is
// left out of CacheKey.
type JobRequest struct {
	Kind JobKind `json:"kind"`

	// Benchmark names one catalog design for the single-design kinds
	// (protect, attack, evaluate, matrix). Benchmarks lists the designs of
	// a suite job; a suite may also use Benchmark as shorthand for a
	// one-element list.
	Benchmark  string   `json:"benchmark,omitempty"`
	Benchmarks []string `json:"benchmarks,omitempty"`

	Scale         int      `json:"scale,omitempty"`          // superblue scale divisor (0 = default 300)
	LiftLayer     int      `json:"lift_layer,omitempty"`     // WithLiftLayer
	Utilization   int      `json:"utilization,omitempty"`    // WithUtilization
	Seed          int64    `json:"seed,omitempty"`           // WithSeed
	PPABudget     float64  `json:"ppa_budget,omitempty"`     // WithPPABudget
	TargetOER     float64  `json:"target_oer,omitempty"`     // WithTargetOER
	PatternWords  int      `json:"pattern_words,omitempty"`  // WithPatternWords
	SplitLayers   []int    `json:"split_layers,omitempty"`   // WithSplitLayers
	Attackers     []string `json:"attackers,omitempty"`      // WithAttackers
	Defenses      []string `json:"defenses,omitempty"`       // WithDefenses
	Fraction      float64  `json:"fraction,omitempty"`       // WithFraction
	Replicates    int      `json:"replicates,omitempty"`     // WithReplicates
	MaxAttempts   int      `json:"max_attempts,omitempty"`   // WithMaxAttempts
	Parallelism   int      `json:"parallelism,omitempty"`    // WithParallelism
	RouteStrategy string   `json:"route_strategy,omitempty"` // WithRouteStrategy ("auto", "flat", "hier"; "" = auto)
}

// benchmarkList normalizes the Benchmark/Benchmarks pair into one ordered
// list without mutating the request.
func (r JobRequest) benchmarkList() []string {
	if len(r.Benchmarks) > 0 {
		names := append([]string(nil), r.Benchmarks...)
		if r.Benchmark != "" {
			names = append([]string{r.Benchmark}, names...)
		}
		return names
	}
	if r.Benchmark != "" {
		return []string{r.Benchmark}
	}
	return nil
}

// Validate checks the request shape — known kind, a benchmark selection
// that matches the kind and the catalog — and every Pipeline option it
// carries, returning a typed *OptionError for the first violation. It does
// no heavy work, so servers can reject bad requests before admission.
func (r JobRequest) Validate() error {
	switch r.Kind {
	case JobProtect, JobAttack, JobEvaluate, JobMatrix, JobSuite:
	case "":
		return &OptionError{"kind", fmt.Sprintf("missing job kind (have %v)", JobKinds())}
	default:
		return &OptionError{"kind", fmt.Sprintf("unknown job kind %q (have %v)", r.Kind, JobKinds())}
	}
	names := r.benchmarkList()
	if len(names) == 0 {
		return &OptionError{"benchmark", "no benchmark named"}
	}
	if r.Kind != JobSuite && len(names) > 1 {
		return &OptionError{"benchmarks", fmt.Sprintf("%s jobs take exactly one benchmark, got %d", r.Kind, len(names))}
	}
	known := map[string]bool{}
	for _, e := range Catalog() {
		known[e.Name] = true
	}
	for _, name := range names {
		if !known[name] {
			return &OptionError{"benchmark", fmt.Sprintf("unknown benchmark %q (see Benchmarks())", name)}
		}
	}
	if r.Scale < 0 {
		return &OptionError{"scale", fmt.Sprintf("scale divisor %d is negative", r.Scale)}
	}
	return New(r.Options()...).Validate()
}

// Options maps the request onto the Pipeline's functional options, with
// extra options appended after the request's own (so callers — e.g. a
// server granting a parallelism share or attaching a progress hook — can
// override request fields).
func (r JobRequest) Options(extra ...Option) []Option {
	opts := []Option{
		WithLiftLayer(r.LiftLayer),
		WithUtilization(r.Utilization),
		WithPPABudget(r.PPABudget),
		WithTargetOER(r.TargetOER),
		WithPatternWords(r.PatternWords),
		WithFraction(r.Fraction),
		WithReplicates(r.Replicates),
		WithMaxAttempts(r.MaxAttempts),
		WithParallelism(r.Parallelism),
		WithRouteStrategy(r.RouteStrategy),
	}
	// Seed is the one option whose library default is not the zero value
	// (the default master seed is 1), so a zero seed means "default" here
	// too rather than literally seed 0.
	if r.Seed != 0 {
		opts = append(opts, WithSeed(r.Seed))
	}
	if len(r.SplitLayers) > 0 {
		opts = append(opts, WithSplitLayers(r.SplitLayers...))
	}
	if len(r.Attackers) > 0 {
		opts = append(opts, WithAttackers(r.Attackers...))
	}
	if len(r.Defenses) > 0 {
		opts = append(opts, WithDefenses(r.Defenses...))
	}
	return append(opts, extra...)
}

// CacheKey is the content-addressed identity of the request's result: two
// requests with equal keys produce byte-identical reports. Parallelism is
// excluded — every entry point guarantees identical results at every
// parallelism level — so a server cache keyed on it shares results across
// differently-budgeted submissions. The route strategy is
// included (flat and hier produce different routings) and normalized like
// the seed: an omitted strategy and an explicit "auto" share one key. The
// seed is normalized the same way Options() resolves it (0 means the
// default master seed), so an omitted seed and an explicitly-spelled
// default share one key. The other design-independent defaults (pattern
// words, split layers, attackers, defenses, replicates, max attempts,
// target OER) resolve the same way, since reports echo the resolved
// values; lift layer, utilization and PPA budget default per design and
// are keyed as given.
func (r JobRequest) CacheKey() string {
	n := r
	n.Benchmark = ""
	n.Benchmarks = r.benchmarkList()
	n.Parallelism = 0
	if n.RouteStrategy == "" {
		n.RouteStrategy = string(route.StrategyAuto)
	}
	if n.Seed == 0 {
		n.Seed = defaultSeed
	}
	if n.PatternWords == 0 {
		n.PatternWords = flow.DefaultPatternWords
	}
	if len(n.SplitLayers) == 0 {
		n.SplitLayers = flow.DefaultSplitLayers()
	}
	if len(n.Attackers) == 0 {
		n.Attackers = []string{flow.DefaultAttacker}
	}
	if len(n.Defenses) == 0 {
		n.Defenses = []string{flow.DefaultDefense}
	}
	if n.Replicates == 0 {
		n.Replicates = flow.DefaultReplicates
	}
	if n.MaxAttempts == 0 {
		n.MaxAttempts = flow.DefaultMaxAttempts
	}
	if n.TargetOER == 0 {
		n.TargetOER = flow.DefaultTargetOER
	}
	b, err := json.Marshal(n)
	if err != nil {
		// A JobRequest is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("splitmfg: marshal job request: %v", err))
	}
	return string(n.Kind) + "|" + string(b)
}

// DecodeReport rebuilds the typed report a kind's Run returns from its
// JSON serialization: *ProtectReport (protect), *SecurityReport (attack,
// evaluate), *MatrixReport (matrix), or *SuiteReport (suite). It is the
// decode half of a disk-backed result cache keyed on CacheKey — reports
// round-trip through encoding/json byte-identically (every field is
// tagged, floats use the shortest round-trippable form, maps encode with
// sorted keys).
func DecodeReport(kind JobKind, data []byte) (any, error) {
	var v any
	switch kind {
	case JobProtect:
		v = &ProtectReport{}
	case JobAttack, JobEvaluate:
		v = &SecurityReport{}
	case JobMatrix:
		v = &MatrixReport{}
	case JobSuite:
		v = &SuiteReport{}
	default:
		return nil, &OptionError{"kind", fmt.Sprintf("unknown job kind %q", kind)}
	}
	if err := json.Unmarshal(data, v); err != nil {
		return nil, err
	}
	return v, nil
}

// Run validates the request, loads its benchmarks, and dispatches to the
// Pipeline entry point its kind names, returning the kind's report:
// *ProtectReport (protect), *SecurityReport (attack, evaluate),
// *MatrixReport (matrix), or *SuiteReport (suite). Extra options are
// appended after the request's own. The context is honored at every stage
// boundary of the underlying flow.
func (r JobRequest) Run(ctx context.Context, extra ...Option) (any, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	pipe := New(r.Options(extra...)...)
	if err := pipe.Validate(); err != nil {
		return nil, err
	}
	var bopts []BenchmarkOption
	if r.Scale > 0 {
		bopts = append(bopts, WithScale(r.Scale))
	}
	var designs []*Design
	for _, name := range r.benchmarkList() {
		d, err := LoadBenchmark(name, bopts...)
		if err != nil {
			return nil, err
		}
		designs = append(designs, d)
	}
	switch r.Kind {
	case JobProtect:
		res, err := pipe.Protect(ctx, designs[0])
		if err != nil {
			return nil, err
		}
		rep := res.Report()
		return &rep, nil
	case JobAttack:
		return pipe.Attack(ctx, designs[0])
	case JobEvaluate:
		l, err := pipe.Randomized(ctx, designs[0])
		if err != nil {
			return nil, err
		}
		return pipe.Evaluate(ctx, l)
	case JobMatrix:
		return pipe.Matrix(ctx, designs[0])
	case JobSuite:
		return pipe.Suite(ctx, designs)
	}
	return nil, &OptionError{"kind", fmt.Sprintf("unknown job kind %q", r.Kind)}
}
