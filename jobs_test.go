package splitmfg

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"

	"splitmfg/internal/flow"
)

func TestPipelineValidate(t *testing.T) {
	cases := []struct {
		name   string
		opts   []Option
		option string // expected OptionError.Option; "" = valid
	}{
		{"defaults", nil, ""},
		{"full valid", []Option{WithSeed(7), WithLiftLayer(6), WithUtilization(70),
			WithPPABudget(20), WithTargetOER(0.9), WithPatternWords(16),
			WithSplitLayers(3, 4), WithAttackers("proximity", "random"),
			WithDefenses("pin-swapping"), WithFraction(0.2), WithReplicates(3),
			WithMaxAttempts(2), WithParallelism(4)}, ""},
		{"negative lift", []Option{WithLiftLayer(-1)}, "WithLiftLayer"},
		{"lift without correction cell", []Option{WithLiftLayer(7)}, "WithLiftLayer"},
		{"lift M8", []Option{WithLiftLayer(8)}, ""},
		{"util over 100", []Option{WithUtilization(101)}, "WithUtilization"},
		{"util over placer max", []Option{WithUtilization(96)}, "WithUtilization"},
		{"util at placer max", []Option{WithUtilization(95)}, ""},
		{"negative budget", []Option{WithPPABudget(-5)}, "WithPPABudget"},
		{"oer over 1", []Option{WithTargetOER(1.5)}, "WithTargetOER"},
		{"negative words", []Option{WithPatternWords(-1)}, "WithPatternWords"},
		{"layer below M1", []Option{WithSplitLayers(0)}, "WithSplitLayers"},
		{"layer at top metal", []Option{WithSplitLayers(3, 10)}, "WithSplitLayers"},
		{"layer M9", []Option{WithSplitLayers(9)}, ""},
		{"fraction over 1", []Option{WithFraction(1.5)}, "WithFraction"},
		{"negative fraction", []Option{WithFraction(-0.1)}, "WithFraction"},
		{"negative replicates", []Option{WithReplicates(-1)}, "WithReplicates"},
		{"negative attempts", []Option{WithMaxAttempts(-1)}, "WithMaxAttempts"},
		{"negative parallelism", []Option{WithParallelism(-1)}, "WithParallelism"},
		{"flat route strategy", []Option{WithRouteStrategy("flat")}, ""},
		{"hier route strategy", []Option{WithRouteStrategy("hier")}, ""},
		{"unknown route strategy", []Option{WithRouteStrategy("bogus")}, "WithRouteStrategy"},
		{"unknown attacker", []Option{WithAttackers("bogus")}, "WithAttackers"},
		{"blank attacker", []Option{WithAttackers("")}, "WithAttackers"},
		{"unknown defense", []Option{WithDefenses("bogus")}, "WithDefenses"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := New(tc.opts...).Validate()
			if tc.option == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			var oe *OptionError
			if !errors.As(err, &oe) {
				t.Fatalf("Validate() = %v, want *OptionError", err)
			}
			if oe.Option != tc.option {
				t.Fatalf("OptionError.Option = %q, want %q (err: %v)", oe.Option, tc.option, err)
			}
		})
	}
}

func TestJobRequestValidate(t *testing.T) {
	valid := JobRequest{Kind: JobEvaluate, Benchmark: "c432", PatternWords: 4}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	cases := []struct {
		name string
		req  JobRequest
	}{
		{"missing kind", JobRequest{Benchmark: "c432"}},
		{"unknown kind", JobRequest{Kind: "bake", Benchmark: "c432"}},
		{"no benchmark", JobRequest{Kind: JobMatrix}},
		{"unknown benchmark", JobRequest{Kind: JobMatrix, Benchmark: "c9999"}},
		{"multi-bench matrix", JobRequest{Kind: JobMatrix, Benchmarks: []string{"c432", "c880"}}},
		{"negative scale", JobRequest{Kind: JobMatrix, Benchmark: "c432", Scale: -1}},
		{"bad fraction", JobRequest{Kind: JobMatrix, Benchmark: "c432", Fraction: 2}},
		{"unknown attacker", JobRequest{Kind: JobAttack, Benchmark: "c432", Attackers: []string{"bogus"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.req.Validate()
			var oe *OptionError
			if !errors.As(err, &oe) {
				t.Fatalf("Validate() = %v, want *OptionError", err)
			}
		})
	}
	// A suite accepts several benchmarks.
	suite := JobRequest{Kind: JobSuite, Benchmarks: []string{"c432", "c880"}}
	if err := suite.Validate(); err != nil {
		t.Fatalf("suite request rejected: %v", err)
	}
}

func TestJobRequestCacheKeyIgnoresParallelism(t *testing.T) {
	a := JobRequest{Kind: JobMatrix, Benchmark: "c432", PatternWords: 16, Parallelism: 1}
	b := JobRequest{Kind: JobMatrix, Benchmark: "c432", PatternWords: 16, Parallelism: 8}
	if a.CacheKey() != b.CacheKey() {
		t.Fatalf("cache keys differ on parallelism only:\n%s\n%s", a.CacheKey(), b.CacheKey())
	}
	c := b
	c.Seed = 42
	if b.CacheKey() == c.CacheKey() {
		t.Fatalf("cache key ignores seed: %s", c.CacheKey())
	}
	// Benchmark and a one-element Benchmarks list address the same result.
	d := JobRequest{Kind: JobSuite, Benchmark: "c432"}
	e := JobRequest{Kind: JobSuite, Benchmarks: []string{"c432"}}
	if d.CacheKey() != e.CacheKey() {
		t.Fatalf("benchmark spellings not normalized:\n%s\n%s", d.CacheKey(), e.CacheKey())
	}
}

func TestJobRequestCacheKeyNormalizesSeed(t *testing.T) {
	// Options() treats Seed == 0 as "the default master seed", so an
	// omitted seed and an explicitly-spelled default produce the same
	// report — and must share one cache key.
	omitted := JobRequest{Kind: JobAttack, Benchmark: "c432"}
	spelled := JobRequest{Kind: JobAttack, Benchmark: "c432", Seed: 1}
	if omitted.CacheKey() != spelled.CacheKey() {
		t.Fatalf("default-seed spellings not normalized:\n%s\n%s", omitted.CacheKey(), spelled.CacheKey())
	}
	other := JobRequest{Kind: JobAttack, Benchmark: "c432", Seed: 2}
	if other.CacheKey() == spelled.CacheKey() {
		t.Fatal("distinct seeds share a cache key")
	}
}

// TestJobRequestSpelledDefaults runs one c432 request of each kind that
// reads the design-independent defaults twice — omitting them, then
// spelling every one out — and asserts one cache key and byte-identical
// reports: reports echo the resolved values, so the spellings must not
// split the cache.
func TestJobRequestSpelledDefaults(t *testing.T) {
	for _, kind := range []JobKind{JobSuite, JobProtect} {
		omitted := JobRequest{Kind: kind, Benchmark: "c432"}
		spelled := JobRequest{Kind: kind, Benchmark: "c432",
			PatternWords: 256, SplitLayers: []int{3, 4, 5}, Attackers: []string{"proximity"},
			Defenses: []string{"randomize-correction"}, Replicates: 1, MaxAttempts: 6, TargetOER: 0.999}
		if omitted.CacheKey() != spelled.CacheKey() {
			t.Fatalf("%s: spelled-out defaults get their own key:\n%s\n%s", kind, omitted.CacheKey(), spelled.CacheKey())
		}
		var reports [2][]byte
		for i, req := range []JobRequest{omitted, spelled} {
			rep, err := req.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if reports[i], err = MarshalReport(rep); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(reports[0], reports[1]) {
			t.Fatalf("%s: spelling out the defaults changed the report:\n%s\n%s", kind, reports[0], reports[1])
		}
	}
}

func TestJobRequestCacheKeyRouteStrategy(t *testing.T) {
	// An omitted strategy resolves to auto, so the two spellings must
	// share one key — but flat and hier change the routed layouts, so
	// each strategy gets its own identity.
	omitted := JobRequest{Kind: JobMatrix, Benchmark: "c432"}
	auto := JobRequest{Kind: JobMatrix, Benchmark: "c432", RouteStrategy: "auto"}
	if omitted.CacheKey() != auto.CacheKey() {
		t.Fatalf("auto-strategy spellings not normalized:\n%s\n%s", omitted.CacheKey(), auto.CacheKey())
	}
	flat := JobRequest{Kind: JobMatrix, Benchmark: "c432", RouteStrategy: "flat"}
	hier := JobRequest{Kind: JobMatrix, Benchmark: "c432", RouteStrategy: "hier"}
	if flat.CacheKey() == auto.CacheKey() || hier.CacheKey() == auto.CacheKey() || flat.CacheKey() == hier.CacheKey() {
		t.Fatalf("strategies share a cache key:\nauto %s\nflat %s\nhier %s",
			auto.CacheKey(), flat.CacheKey(), hier.CacheKey())
	}
}

// FuzzJobRequestCacheKey: CacheKey is a result identity, so every spelling
// of one request must share a key, and a different seed must not. Inputs
// are decoded the way the server's POST /v1/jobs handler decodes them;
// bodies it would reject (unknown fields, failed validation) are skipped.
func FuzzJobRequestCacheKey(f *testing.F) {
	for _, body := range []string{
		// The README's and the CI server smoke's request bodies, then two
		// that spell out the seed, route strategy and benchmark list.
		`{"kind": "matrix", "benchmark": "c432", "defenses": ["randomize-correction", "pin-swapping"], "attackers": ["proximity", "random"]}`,
		`{"kind":"evaluate","benchmark":"c432","pattern_words":16,"split_layers":[3],"attackers":["random"]}`,
		`{"kind":"suite","benchmarks":["c432","c880"],"replicates":2,"seed":7,"route_strategy":"auto","parallelism":2}`,
		`{"kind":"protect","benchmark":"superblue18","scale":800,"seed":1,"route_strategy":"hier","max_attempts":1}`,
		// Every design-independent default spelled out.
		`{"kind":"suite","benchmark":"c432","pattern_words":256,"split_layers":[3,4,5],"attackers":["proximity"],"defenses":["randomize-correction"],"replicates":1,"max_attempts":6,"target_oer":0.999}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req JobRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil || req.Validate() != nil {
			t.Skip()
		}
		key := req.CacheKey()
		same := func(what string, r JobRequest) {
			t.Helper()
			if got := r.CacheKey(); got != key {
				t.Fatalf("%s changed the cache key:\n%s\n%s", what, key, got)
			}
		}

		r := req
		r.Parallelism = req.Parallelism + 3
		same("parallelism", r)

		if req.Seed == 0 || req.Seed == defaultSeed {
			r = req
			r.Seed = defaultSeed - req.Seed // 0 <-> the default
			same("spelling the default seed", r)
		}
		if req.RouteStrategy == "" || req.RouteStrategy == "auto" {
			r = req
			r.RouteStrategy = "auto"
			if req.RouteStrategy == "auto" {
				r.RouteStrategy = ""
			}
			same("spelling the auto route strategy", r)
		}
		// Every design-independent default: a request that omits it and
		// one that spells it out share the key.
		dflt := func(field string, isDefault bool, spell, omit func(*JobRequest)) {
			t.Helper()
			if !isDefault {
				return
			}
			r := req
			spell(&r)
			same("spelling the default "+field, r)
			r = req
			omit(&r)
			same("omitting "+field, r)
		}
		dflt("pattern_words", req.PatternWords == 0 || req.PatternWords == flow.DefaultPatternWords,
			func(r *JobRequest) { r.PatternWords = flow.DefaultPatternWords },
			func(r *JobRequest) { r.PatternWords = 0 })
		dflt("split_layers", len(req.SplitLayers) == 0 || slices.Equal(req.SplitLayers, flow.DefaultSplitLayers()),
			func(r *JobRequest) { r.SplitLayers = flow.DefaultSplitLayers() },
			func(r *JobRequest) { r.SplitLayers = nil })
		dflt("attackers", len(req.Attackers) == 0 || slices.Equal(req.Attackers, []string{flow.DefaultAttacker}),
			func(r *JobRequest) { r.Attackers = []string{flow.DefaultAttacker} },
			func(r *JobRequest) { r.Attackers = nil })
		dflt("defenses", len(req.Defenses) == 0 || slices.Equal(req.Defenses, []string{flow.DefaultDefense}),
			func(r *JobRequest) { r.Defenses = []string{flow.DefaultDefense} },
			func(r *JobRequest) { r.Defenses = nil })
		dflt("replicates", req.Replicates == 0 || req.Replicates == flow.DefaultReplicates,
			func(r *JobRequest) { r.Replicates = flow.DefaultReplicates },
			func(r *JobRequest) { r.Replicates = 0 })
		dflt("max_attempts", req.MaxAttempts == 0 || req.MaxAttempts == flow.DefaultMaxAttempts,
			func(r *JobRequest) { r.MaxAttempts = flow.DefaultMaxAttempts },
			func(r *JobRequest) { r.MaxAttempts = 0 })
		dflt("target_oer", req.TargetOER == 0 || req.TargetOER == flow.DefaultTargetOER,
			func(r *JobRequest) { r.TargetOER = flow.DefaultTargetOER },
			func(r *JobRequest) { r.TargetOER = 0 })
		if names := req.benchmarkList(); len(names) == 1 {
			r = req
			r.Benchmark, r.Benchmarks = names[0], nil
			same("benchmark alone", r)
			r.Benchmark, r.Benchmarks = "", names
			same("a one-element benchmarks list", r)
		}

		data, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var back JobRequest
		dec = json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&back); err != nil {
			t.Fatalf("re-decoding %s: %v", data, err)
		}
		same("a JSON round trip", back)

		seed := req.Seed
		if seed == 0 {
			seed = defaultSeed
		}
		r = req
		if r.Seed = seed + 1; r.Seed == 0 { // 0 would mean the default seed
			r.Seed = 2
		}
		if r.CacheKey() == key {
			t.Fatalf("seeds %d and %d share the cache key %s", seed, r.Seed, key)
		}
	})
}

func TestDecodeReportRoundTrips(t *testing.T) {
	req := JobRequest{Kind: JobEvaluate, Benchmark: "c432", PatternWords: 4,
		SplitLayers: []int{3}, Attackers: []string{"random"}}
	rep, err := req.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeReport(req.Kind, data)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := back.(*SecurityReport); !ok {
		t.Fatalf("decoded %T, want *SecurityReport", back)
	}
	again, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(again) {
		t.Fatalf("report did not round-trip byte-identically:\n%s\n----\n%s", data, again)
	}
	if _, err := DecodeReport("bogus", data); err == nil {
		t.Fatal("unknown kind decoded")
	}
}

func TestJobRequestRunEvaluateMatchesPipeline(t *testing.T) {
	req := JobRequest{Kind: JobEvaluate, Benchmark: "c432", PatternWords: 16,
		SplitLayers: []int{3}, Attackers: []string{"random"}}
	got, err := req.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rep, ok := got.(*SecurityReport)
	if !ok {
		t.Fatalf("evaluate job returned %T, want *SecurityReport", got)
	}
	d, err := LoadBenchmark("c432")
	if err != nil {
		t.Fatal(err)
	}
	pipe := New(WithPatternWords(16), WithSplitLayers(3), WithAttackers("random"))
	l, err := pipe.Randomized(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pipe.Evaluate(context.Background(), l)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := MarshalReport(rep)
	jb, _ := MarshalReport(want)
	if string(ja) != string(jb) {
		t.Fatalf("JobRequest.Run diverges from the direct pipeline:\n%s\nvs\n%s", ja, jb)
	}
}

func TestJobRequestRunRejectsBadRequest(t *testing.T) {
	_, err := JobRequest{Kind: JobEvaluate, Benchmark: "c432", Fraction: -1}.Run(context.Background())
	var oe *OptionError
	if !errors.As(err, &oe) {
		t.Fatalf("Run on invalid request = %v, want *OptionError", err)
	}
}

func TestCatalogEntries(t *testing.T) {
	entries := Catalog()
	if len(entries) != len(Benchmarks()) {
		t.Fatalf("catalog has %d entries, want %d", len(entries), len(Benchmarks()))
	}
	byName := map[string]CatalogEntry{}
	for _, e := range entries {
		byName[e.Name] = e
	}
	c432, ok := byName["c432"]
	if !ok || c432.Cells != 160 || c432.Inputs != 36 || c432.Outputs != 7 {
		t.Fatalf("c432 catalog entry wrong: %+v", c432)
	}
	if c432.Superblue || c432.LiftLayer != 6 || c432.PPABudget != 20 || c432.Utilization != 70 {
		t.Fatalf("c432 recommended settings wrong: %+v", c432)
	}
	sb18, ok := byName["superblue18"]
	if !ok || !sb18.Superblue || sb18.Cells != 670323 || sb18.Scale != 300 {
		t.Fatalf("superblue18 catalog entry wrong: %+v", sb18)
	}
	if sb18.LiftLayer != 8 || sb18.PPABudget != 5 || sb18.Utilization != 67 {
		t.Fatalf("superblue18 recommended settings wrong: %+v", sb18)
	}
	// Every entry advertises a nonzero published size.
	for _, e := range entries {
		if e.Cells <= 0 || e.Inputs <= 0 || e.Outputs <= 0 {
			t.Fatalf("catalog entry %s has empty published size: %+v", e.Name, e)
		}
	}
}

func TestOptionErrorMessageNamesOption(t *testing.T) {
	err := New(WithFraction(3)).Validate()
	if err == nil || !strings.Contains(err.Error(), "WithFraction") {
		t.Fatalf("error %v does not name the offending option", err)
	}
}
