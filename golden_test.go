package splitmfg

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update rewrites the golden files instead of comparing against them:
//
//	go test -run Golden -update .
//
// Golden reports pin the whole pipeline — seed streams, randomization,
// placement, routing, attack scoring, and report serialization — byte for
// byte. A diff here means a reproducibility regression (or an intentional
// change: inspect the diff, then regenerate).
var update = flag.Bool("update", false, "rewrite testdata/golden files")

func goldenCompare(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run Golden -update .`): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from the golden file.\n--- got ---\n%s\n--- want ---\n%s\n"+
			"If the change is intentional, regenerate with `go test -run Golden -update .`",
			name, got, want)
	}
}

func marshalGolden(t *testing.T, v interface{}) []byte {
	t.Helper()
	b, err := MarshalReport(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// goldenPipeline is the fixed configuration every golden report is pinned
// at: one escalation attempt and a shallow pattern budget keep the run in
// test-suite time while still exercising every stage.
func goldenPipeline(opts ...Option) *Pipeline {
	return New(append([]Option{
		WithSeed(1),
		WithMaxAttempts(1),
		WithPatternWords(16),
	}, opts...)...)
}

func TestGoldenProtectAndSecurityReports(t *testing.T) {
	design, err := LoadBenchmark("c432")
	if err != nil {
		t.Fatal(err)
	}
	pipe := goldenPipeline(WithAttackers("proximity", "greedy", "random"))
	ctx := context.Background()
	res, err := pipe.Protect(ctx, design)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report()
	goldenCompare(t, "protect_c432.json", marshalGolden(t, rep))

	sec, err := pipe.Evaluate(ctx, res.ProtectedLayout())
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "security_c432.json", marshalGolden(t, sec))
}

// TestGoldenReportsRouteSerialVsParallel: the wave-parallel router's
// determinism contract at the report level. A serial run
// (WithParallelism(1), which routes serially too) and an explicitly
// parallel one must both reproduce the same golden bytes the default
// configuration is pinned to — protect and security reports alike.
func TestGoldenReportsRouteSerialVsParallel(t *testing.T) {
	design, err := LoadBenchmark("c432")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		par  int
	}{
		{"serial", 1},
		{"parallel4", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pipe := goldenPipeline(
				WithAttackers("proximity", "greedy", "random"),
				WithParallelism(tc.par),
			)
			res, err := pipe.Protect(ctx, design)
			if err != nil {
				t.Fatal(err)
			}
			goldenCompare(t, "protect_c432.json", marshalGolden(t, res.Report()))
			sec, err := pipe.Evaluate(ctx, res.ProtectedLayout())
			if err != nil {
				t.Fatal(err)
			}
			goldenCompare(t, "security_c432.json", marshalGolden(t, sec))
		})
	}
}

// TestGoldenHierProtectReport pins the hierarchical routing strategy to
// its own golden: c432 under an explicit "hier" strategy (auto routes a
// die this small flat, so the flat goldens above are untouched by the
// strategy's existence), serial and at parallelism 4. The
// determinism contract holds per strategy — coarse corridors are planned
// serially before the wave partition, so the golden bytes must not
// depend on the worker count.
func TestGoldenHierProtectReport(t *testing.T) {
	design, err := LoadBenchmark("c432")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		par  int
	}{
		{"serial", 1},
		{"parallel4", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pipe := goldenPipeline(
				WithAttackers("proximity", "greedy", "random"),
				WithRouteStrategy("hier"),
				WithParallelism(tc.par),
			)
			res, err := pipe.Protect(ctx, design)
			if err != nil {
				t.Fatal(err)
			}
			goldenCompare(t, "protect_c432_hier.json", marshalGolden(t, res.Report()))
		})
	}
}

func TestGoldenSuiteReport(t *testing.T) {
	// Two benchmarks × two defenses × two attackers × two seed replicates:
	// the whole suite path — scheduler, cache, replicate seed derivation,
	// mean ± std aggregation, serialization — pinned byte for byte.
	var designs []*Design
	for _, name := range []string{"c432", "c880"} {
		d, err := LoadBenchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		designs = append(designs, d)
	}
	opts := []Option{
		WithDefenses("randomize-correction", "pin-swapping"),
		WithAttackers("proximity", "random"),
		WithReplicates(2),
	}
	ctx := context.Background()
	rep, err := goldenPipeline(opts...).Suite(ctx, designs)
	if err != nil {
		t.Fatal(err)
	}
	got := marshalGolden(t, rep)
	goldenCompare(t, "suite_small.json", got)

	// The golden bytes must not depend on the worker pool: a serial run
	// must serialize identically, cache counters included.
	serial, err := goldenPipeline(append(opts, WithParallelism(1))...).Suite(ctx, designs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, marshalGolden(t, serial)) {
		t.Fatal("serial suite run does not match the parallel golden bytes")
	}
}

func TestGoldenMatrixReport(t *testing.T) {
	design, err := LoadBenchmark("c432")
	if err != nil {
		t.Fatal(err)
	}
	opts := []Option{
		WithDefenses("randomize-correction", "naive-lifted", "pin-swapping"),
		WithAttackers("proximity", "greedy", "random"),
	}
	ctx := context.Background()
	rep, err := goldenPipeline(opts...).Matrix(ctx, design)
	if err != nil {
		t.Fatal(err)
	}
	got := marshalGolden(t, rep)
	goldenCompare(t, "matrix_c432.json", got)

	// The golden bytes must not depend on evaluation parallelism: a serial
	// run must serialize identically.
	serial, err := goldenPipeline(append(opts, WithParallelism(1))...).Matrix(ctx, design)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, marshalGolden(t, serial)) {
		t.Fatal("serial matrix run does not match the parallel golden bytes")
	}
}
