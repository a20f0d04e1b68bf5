package splitmfg

import (
	"bytes"
	"context"
	"errors"
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// fastOptions keeps API tests quick: c432-scale work, shallow simulation.
func fastOptions(extra ...Option) []Option {
	opts := []Option{
		WithSeed(7),
		WithPatternWords(16),
		WithMaxAttempts(1),
	}
	return append(opts, extra...)
}

// runOnce protects c432 and evaluates its protected layout, returning both
// reports marshalled to JSON.
func runOnce(t *testing.T, opts ...Option) ([]byte, []byte) {
	t.Helper()
	design, err := LoadBenchmark("c432")
	if err != nil {
		t.Fatal(err)
	}
	pipe := New(opts...)
	ctx := context.Background()
	res, err := pipe.Protect(ctx, design)
	if err != nil {
		t.Fatal(err)
	}
	sec, err := pipe.Evaluate(ctx, res.ProtectedLayout())
	if err != nil {
		t.Fatal(err)
	}
	pj, err := MarshalReport(res.Report())
	if err != nil {
		t.Fatal(err)
	}
	sj, err := MarshalReport(sec)
	if err != nil {
		t.Fatal(err)
	}
	return pj, sj
}

// TestReportDeterminism: the same seed and options must produce
// byte-identical JSON reports across independent pipeline instances.
func TestReportDeterminism(t *testing.T) {
	p1, s1 := runOnce(t, fastOptions()...)
	p2, s2 := runOnce(t, fastOptions()...)
	if !bytes.Equal(p1, p2) {
		t.Fatalf("protect reports differ:\n%s\nvs\n%s", p1, p2)
	}
	if !bytes.Equal(s1, s2) {
		t.Fatalf("security reports differ:\n%s\nvs\n%s", s1, s2)
	}
}

// TestEvaluateSerialEqualsParallel: averaged CCR/OER/HD (and the whole
// per-layer report) must be identical whether layers are attacked serially
// or concurrently.
func TestEvaluateSerialEqualsParallel(t *testing.T) {
	_, serial := runOnce(t, fastOptions(WithParallelism(1))...)
	_, parallel := runOnce(t, fastOptions(WithParallelism(8))...)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("serial vs parallel evaluation reports differ:\n%s\nvs\n%s", serial, parallel)
	}
}

// TestPipelinePerDesignOverrides: lift layer, utilization and PPA budget
// default per design, and an override must reach both build paths — the
// Protect flow and the matrix's shared baseline — as the same settings.
func TestPipelinePerDesignOverrides(t *testing.T) {
	design, err := LoadBenchmark("c432")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	run := func(extra ...Option) (ProtectReport, PPAReport) {
		t.Helper()
		pipe := New(append([]Option{WithMaxAttempts(1), WithPatternWords(16), WithSplitLayers(3)}, extra...)...)
		res, err := pipe.Protect(ctx, design)
		if err != nil {
			t.Fatal(err)
		}
		m, err := pipe.Matrix(ctx, design)
		if err != nil {
			t.Fatal(err)
		}
		return res.Report(), m.BasePPA
	}
	def, defMatrix := run()
	if def.LiftLayer != 6 || def.BudgetPercent != 20 {
		t.Fatalf("defaults: lift %d, budget %g; want c432's 6 and 20", def.LiftLayer, def.BudgetPercent)
	}
	over, overMatrix := run(WithLiftLayer(8), WithUtilization(60), WithPPABudget(7))
	if over.LiftLayer != 8 || over.BudgetPercent != 7 {
		t.Fatalf("overrides: lift %d, budget %g; want 8 and 7", over.LiftLayer, over.BudgetPercent)
	}
	if over.BasePPA == def.BasePPA {
		t.Fatalf("overrides left Protect's base PPA at the default's %+v", def.BasePPA)
	}
	if def.BasePPA != defMatrix || over.BasePPA != overMatrix {
		t.Fatalf("Protect and Matrix built different baselines:\ndefault   %+v vs %+v\noverrides %+v vs %+v",
			def.BasePPA, defMatrix, over.BasePPA, overMatrix)
	}
}

// TestNaiveLiftedLiftsRandomizedPins: the naive-lifting baseline lifts
// exactly the sink pins Randomized protects, at the default target OER and
// at a lower one.
func TestNaiveLiftedLiftsRandomizedPins(t *testing.T) {
	design, err := LoadBenchmark("c432")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, oer := range []float64{0, 0.5} { // 0 = the default target
		pipe := New(WithSeed(1), WithTargetOER(oer))
		prot, err := pipe.Randomized(ctx, design)
		if err != nil {
			t.Fatal(err)
		}
		lifted, err := pipe.NaiveLifted(ctx, design)
		if err != nil {
			t.Fatal(err)
		}
		if len(prot.onlyPins) == 0 || !maps.Equal(prot.onlyPins, lifted.onlyPins) {
			t.Fatalf("target OER %g: Randomized protects %d pins, NaiveLifted lifts %d, want the same set",
				oer, len(prot.onlyPins), len(lifted.onlyPins))
		}
	}
}

// TestNaiveLiftedReportsProgress: the naive-lifting build reports its
// place, lift and route stages like the other layout builds do.
func TestNaiveLiftedReportsProgress(t *testing.T) {
	design, err := LoadBenchmark("c432")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := map[Stage]bool{}
	record := func(ev ProgressEvent) {
		mu.Lock()
		defer mu.Unlock()
		if ev.Detail == "lifted" {
			seen[ev.Stage] = true
		}
	}
	if _, err := New(WithSeed(1), WithProgress(record)).NaiveLifted(context.Background(), design); err != nil {
		t.Fatal(err)
	}
	for _, stage := range []Stage{StagePlace, StageLift, StageRoute} {
		if !seen[stage] {
			t.Fatalf("no %q event with detail \"lifted\" (saw %v)", stage, seen)
		}
	}
}

// TestProtectCancellation: a context cancelled mid-flight must abort
// Protect promptly with ctx.Err().
func TestProtectCancellation(t *testing.T) {
	design, err := LoadBenchmark("c880")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())

	// Pre-cancelled context: immediate error.
	cancel()
	if _, err := New(fastOptions()...).Protect(ctx, design); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Protect returned %v, want context.Canceled", err)
	}

	// Cancel on the first progress event: Protect must stop at the next
	// stage boundary rather than finish the escalation loop.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	var once sync.Once
	pipe := New(fastOptions(WithProgress(func(ProgressEvent) { once.Do(cancel2) }))...)
	start := time.Now()
	_, err = pipe.Protect(ctx2, design)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancelled Protect returned %v, want context.Canceled", err)
	}
	// Generous bound: a full c880 protect run takes much longer than a
	// single remaining stage.
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v, not prompt", elapsed)
	}
}

// TestEvaluateCancellation: a cancelled context aborts Evaluate.
func TestEvaluateCancellation(t *testing.T) {
	design, err := LoadBenchmark("c432")
	if err != nil {
		t.Fatal(err)
	}
	pipe := New(fastOptions()...)
	l, err := pipe.Baseline(context.Background(), design)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pipe.Evaluate(ctx, l); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Evaluate returned %v, want context.Canceled", err)
	}
}

// TestProgressEventOrdering: Protect must report stages in flow order
// within each escalation attempt, and serial Evaluate must report attack
// layers in the requested order.
func TestProgressEventOrdering(t *testing.T) {
	design, err := LoadBenchmark("c432")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var events []ProgressEvent
	record := func(ev ProgressEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}
	pipe := New(fastOptions(WithProgress(record), WithParallelism(1), WithSplitLayers(3, 4, 5))...)
	ctx := context.Background()
	res, err := pipe.Protect(ctx, design)
	if err != nil {
		t.Fatal(err)
	}
	protectEvents := append([]ProgressEvent(nil), events...)
	events = nil
	if _, err := pipe.Evaluate(ctx, res.ProtectedLayout()); err != nil {
		t.Fatal(err)
	}
	attackEvents := append([]ProgressEvent(nil), events...)

	// Baseline build precedes protected work; within an attempt the stages
	// follow the flow order.
	order := map[Stage]int{
		StageRandomize: 0, StagePlace: 1, StageLift: 2, StageRoute: 3,
		StageRestore: 4, StageVerify: 5, StagePPA: 6,
	}
	if len(protectEvents) == 0 {
		t.Fatal("no progress events from Protect")
	}
	if protectEvents[0].Detail != "baseline" || protectEvents[0].Stage != StagePlace {
		t.Fatalf("first event = %+v, want baseline place", protectEvents[0])
	}
	lastAttempt, lastOrder := 0, -1
	for _, ev := range protectEvents {
		if ev.Detail == "baseline" {
			if ev.Attempt != 0 {
				t.Fatalf("baseline event with attempt %d: %+v", ev.Attempt, ev)
			}
			continue
		}
		if ev.Attempt < lastAttempt {
			t.Fatalf("attempt went backwards: %+v after attempt %d", ev, lastAttempt)
		}
		if ev.Attempt > lastAttempt {
			lastAttempt, lastOrder = ev.Attempt, -1
		}
		o, ok := order[ev.Stage]
		if !ok {
			t.Fatalf("unexpected stage %q during Protect", ev.Stage)
		}
		if o <= lastOrder {
			t.Fatalf("stage %q out of order within attempt %d", ev.Stage, ev.Attempt)
		}
		lastOrder = o
	}

	// Serial Evaluate reports attack layers in request order with timings.
	if len(attackEvents) != 3 {
		t.Fatalf("got %d attack events, want 3: %+v", len(attackEvents), attackEvents)
	}
	for i, want := range []int{3, 4, 5} {
		ev := attackEvents[i]
		if ev.Stage != StageAttack || ev.Layer != want {
			t.Fatalf("attack event %d = %+v, want layer %d", i, ev, want)
		}
		if ev.Elapsed <= 0 {
			t.Fatalf("attack event %d has no timing: %+v", i, ev)
		}
	}
}

// TestAttackerCatalog: the engine registry ships exactly the four
// documented attackers, so Attackers' doc, doc.go and the README attacker
// table cannot drift from it.
func TestAttackerCatalog(t *testing.T) {
	want := []string{"crouting", "greedy", "proximity", "random"}
	if names := Attackers(); !slices.Equal(names, want) {
		t.Fatalf("Attackers() = %v, want %v", names, want)
	}
}

// TestEveryAttackerDeterministicSerialParallel: for every registered
// engine, reports must be byte-identical across runs at a fixed seed, and
// serial evaluation must equal parallel evaluation. This is the engine
// contract the pluggable layer rests on.
func TestEveryAttackerDeterministicSerialParallel(t *testing.T) {
	design, err := LoadBenchmark("c880")
	if err != nil {
		t.Fatal(err)
	}
	// One shared layout under attack; pipelines vary only in attacker and
	// parallelism.
	l, err := New(WithSeed(7)).Baseline(context.Background(), design)
	if err != nil {
		t.Fatal(err)
	}
	evaluate := func(attacker string, parallelism int) []byte {
		t.Helper()
		pipe := New(WithSeed(7), WithPatternWords(16), WithAttackers(attacker),
			WithParallelism(parallelism))
		sec, err := pipe.Evaluate(context.Background(), l)
		if err != nil {
			t.Fatalf("%s: %v", attacker, err)
		}
		b, err := MarshalReport(sec)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, attacker := range Attackers() {
		serial1 := evaluate(attacker, 1)
		serial2 := evaluate(attacker, 1)
		parallel := evaluate(attacker, 8)
		if !bytes.Equal(serial1, serial2) {
			t.Fatalf("%s: serial reports differ across runs:\n%s\nvs\n%s", attacker, serial1, serial2)
		}
		if !bytes.Equal(serial1, parallel) {
			t.Fatalf("%s: serial vs parallel reports differ:\n%s\nvs\n%s", attacker, serial1, parallel)
		}
	}
}

// TestMultiAttackerReportSections: a multi-engine evaluation carries one
// section per engine, in request order, with crouting metrics-only.
func TestMultiAttackerReportSections(t *testing.T) {
	design, err := LoadBenchmark("c432")
	if err != nil {
		t.Fatal(err)
	}
	attackers := []string{"greedy", "crouting", "random"}
	pipe := New(fastOptions(WithAttackers(attackers...))...)
	sec, err := pipe.Attack(context.Background(), design)
	if err != nil {
		t.Fatal(err)
	}
	if len(sec.Attackers) != 3 || sec.Attackers[0] != "greedy" {
		t.Fatalf("report attackers = %v, want %v", sec.Attackers, attackers)
	}
	if len(sec.PerAttacker) != 3 {
		t.Fatalf("got %d per-attacker sections, want 3: %+v", len(sec.PerAttacker), sec.PerAttacker)
	}
	for i, ar := range sec.PerAttacker {
		if ar.Attacker != attackers[i] {
			t.Fatalf("section %d is %q, want %q", i, ar.Attacker, attackers[i])
		}
	}
	if sec.PerAttacker[1].Scored {
		t.Fatal("crouting section claims an assignment score")
	}
	if len(sec.PerAttacker[1].Metrics) == 0 {
		t.Fatal("crouting section has no metrics")
	}
	// greedy is first and scores, so it is the primary: headline tracks it.
	if sec.CCRPercent != sec.PerAttacker[0].CCRPercent {
		t.Fatalf("headline CCR %.3f != primary greedy CCR %.3f",
			sec.CCRPercent, sec.PerAttacker[0].CCRPercent)
	}
}

// TestDefenseCatalog: the defense registry covers all eight scheme
// families the paper compares.
// TestSuiteThreeBenchmarksThreeReplicates is the acceptance shape for the
// suite subsystem: three ISCAS benchmarks under WithReplicates(3) must
// produce a byte-identical aggregated report serial vs parallel, and the
// suite cache must demonstrably avoid recomputing each benchmark's
// unprotected baseline (asserted via the report's hit/miss counters).
func TestSuiteThreeBenchmarksThreeReplicates(t *testing.T) {
	names := []string{"c432", "c880", "c1355"}
	var designs []*Design
	for _, name := range names {
		d, err := LoadBenchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		designs = append(designs, d)
	}
	opts := fastOptions(
		WithReplicates(3),
		WithDefenses("pin-swapping"),
		WithAttackers("random"),
		WithPatternWords(8),
	)
	ctx := context.Background()
	parallel, err := New(opts...).Suite(ctx, designs)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := New(append(opts, WithParallelism(1))...).Suite(ctx, designs)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := MarshalReport(parallel)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := MarshalReport(serial)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pb, sb) {
		t.Fatalf("serial and parallel suite reports differ:\n%s\n----\n%s", pb, sb)
	}
	if parallel.Replicates != 3 || len(parallel.PerBenchmark) != len(names) {
		t.Fatalf("suite shape: replicates %d, %d benchmarks", parallel.Replicates, len(parallel.PerBenchmark))
	}
	// 3 benchmarks × 1 defense × 3 replicates: every cell re-requests its
	// benchmark's baseline and must hit; only the 3 baseline builds and
	// the 9 distinct cells miss.
	if parallel.Cache.Misses != 12 || parallel.Cache.Hits != 9 {
		t.Fatalf("cache counters = %+v, want 12 misses / 9 hits (baseline built once per benchmark)", parallel.Cache)
	}
}

func TestDefenseCatalog(t *testing.T) {
	names := Defenses()
	if len(names) < 8 {
		t.Fatalf("defense registry has %d entries, want >= 8: %v", len(names), names)
	}
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, want := range []string{
		"randomize-correction", "naive-lifted", "placement-perturbation",
		"pin-swapping", "routing-perturbation", "synergistic",
		"routing-blockage", "sengupta-gcolor",
	} {
		if !have[want] {
			t.Fatalf("registry missing %q: %v", want, names)
		}
	}
}

func TestParseDefenses(t *testing.T) {
	got, err := ParseDefenses(" randomize-correction , pin-swapping ")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "randomize-correction" || got[1] != "pin-swapping" {
		t.Fatalf("ParseDefenses = %v", got)
	}
	for _, bad := range []string{"", " , ", "randomize-correction,bogus"} {
		if _, err := ParseDefenses(bad); err == nil {
			t.Fatalf("ParseDefenses(%q) accepted", bad)
		}
	}
	// The error must name the registry so users can self-serve.
	_, err = ParseDefenses("bogus")
	if err == nil || !strings.Contains(err.Error(), "pin-swapping") {
		t.Fatalf("ParseDefenses error does not list the registry: %v", err)
	}
}

func TestMatrixUnknownDefenseFails(t *testing.T) {
	design, err := LoadBenchmark("c432")
	if err != nil {
		t.Fatal(err)
	}
	pipe := New(fastOptions(WithDefenses("bogus"))...)
	if _, err := pipe.Matrix(context.Background(), design); err == nil {
		t.Fatal("unknown defense accepted")
	}
}

func TestMatrixCancellation(t *testing.T) {
	design, err := LoadBenchmark("c432")
	if err != nil {
		t.Fatal(err)
	}
	pipe := New(fastOptions(WithDefenses("pin-swapping"))...)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pipe.Matrix(ctx, design); err == nil {
		t.Fatal("cancelled Matrix returned no error")
	}
}

// TestUnknownAttackerFails: WithAttackers with an unregistered name fails
// Evaluate with an error naming the registry.
func TestUnknownAttackerFails(t *testing.T) {
	design, err := LoadBenchmark("c432")
	if err != nil {
		t.Fatal(err)
	}
	pipe := New(fastOptions(WithAttackers("bogus"))...)
	if _, err := pipe.Attack(context.Background(), design); err == nil {
		t.Fatal("unknown attacker accepted")
	}
}

// TestCatalog: the catalog lists every loadable benchmark and rejects
// unknown names.
func TestCatalog(t *testing.T) {
	names := Benchmarks()
	if len(names) != 14 {
		t.Fatalf("catalog has %d entries, want 14: %v", len(names), names)
	}
	for _, name := range []string{"c432", "superblue18"} {
		d, err := LoadBenchmark(name, WithScale(800))
		if err != nil {
			t.Fatal(err)
		}
		if d.Stats().Gates == 0 {
			t.Fatalf("%s loaded empty", name)
		}
	}
	if _, err := LoadBenchmark("c9999"); err == nil {
		t.Fatal("unknown benchmark loaded")
	}
}

// TestAttackEntryPoint: Pipeline.Attack on an unprotected design recovers
// a meaningful fraction of connections (the paper's baseline observation).
func TestAttackEntryPoint(t *testing.T) {
	design, err := LoadBenchmark("c432")
	if err != nil {
		t.Fatal(err)
	}
	sec, err := New(fastOptions()...).Attack(context.Background(), design)
	if err != nil {
		t.Fatal(err)
	}
	if sec.Fragments == 0 {
		t.Fatal("attack scored no fragments")
	}
	if sec.CCRPercent <= 0 {
		t.Fatalf("attack on unprotected design recovered nothing: %+v", sec)
	}
	if len(sec.PerLayer) != 3 {
		t.Fatalf("expected 3 per-layer reports, got %d", len(sec.PerLayer))
	}
}
