package main

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"splitmfg"
	"splitmfg/cmd/internal/cli"
)

func TestRunFig4CSV(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{"-exp", "fig4", "-scale", "2000", "-patterns", "8"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "variant,index,distance_um") {
		t.Fatalf("missing CSV header:\n%.200s", s)
	}
	for _, variant := range []string{"original", "lifted", "proposed"} {
		if !strings.Contains(s, variant+",") {
			t.Fatalf("missing %s series:\n%.200s", variant, s)
		}
	}
}

func TestRunMatrix(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{"-matrix", "-subset", "c432", "-patterns", "16",
		"-defense", "pin-swapping", "-attacker", "random"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "defense x attacker matrix: c432") ||
		!strings.Contains(out.String(), "pin-swapping") {
		t.Fatalf("matrix output missing:\n%s", out.String())
	}
}

func TestRunMatrixCancelled(t *testing.T) {
	// An interrupt-cancelled context must stop the matrix run promptly
	// and must not leave partial table output behind.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out strings.Builder
	err := run(ctx, []string{"-matrix", "-subset", "c432,c880", "-patterns", "16",
		"-defense", "pin-swapping", "-attacker", "random"}, &out)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled -matrix returned %v, want context.Canceled", err)
	}
	if out.Len() != 0 {
		t.Fatalf("cancelled -matrix left partial output:\n%s", out.String())
	}
}

func TestRunSuite(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{"-suite", "-subset", "c432,c880", "-patterns", "16",
		"-replicates", "2", "-defense", "pin-swapping", "-attacker", "random"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"suite: 2 benchmarks", "2 replicate(s)",
		"== aggregate: mean ± std across benchmarks ==",
		"== c432:", "== c880:", "pin-swapping", "cache:",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("suite output missing %q:\n%s", want, s)
		}
	}
	// -suite is a front end for a suite request: same report, same bytes.
	rep, err := splitmfg.JobRequest{Kind: splitmfg.JobSuite, Benchmarks: []string{"c432", "c880"},
		Replicates: 2, PatternWords: 16, Defenses: []string{"pin-swapping"},
		Attackers: []string{"random"}}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := splitmfg.RenderSuite(rep.(*splitmfg.SuiteReport)); s != want {
		t.Fatalf("smbench -suite differs from the request's report:\n%s\n----\n%s", s, want)
	}
}

func TestRunSuiteCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out strings.Builder
	err := run(ctx, []string{"-suite", "-subset", "c432", "-patterns", "16",
		"-defense", "pin-swapping", "-attacker", "random"}, &out)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled -suite returned %v, want context.Canceled", err)
	}
	if out.Len() != 0 {
		t.Fatalf("cancelled -suite left partial output:\n%s", out.String())
	}
}

func TestRunMatrixSuiteExclusive(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{"-matrix", "-suite"}, &out)
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("got %v, want mutually-exclusive error", err)
	}
}

func TestRunReplicatesRequiresSuite(t *testing.T) {
	// Reject, don't silently run a single-seed matrix.
	var out strings.Builder
	err := run(context.Background(), []string{"-matrix", "-replicates", "5"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-replicates") {
		t.Fatalf("got %v, want -replicates usage error", err)
	}
}

func TestRunCacheDirRequiresSuite(t *testing.T) {
	// Only the suite scheduler checkpoints to disk; reject the flag
	// elsewhere rather than silently ignoring it.
	var out strings.Builder
	err := run(context.Background(), []string{"-matrix", "-cache-dir", t.TempDir()}, &out)
	if err == nil || !strings.Contains(err.Error(), "-cache-dir") {
		t.Fatalf("got %v, want -cache-dir usage error", err)
	}
}

func TestRunSuiteResumesFromCacheDir(t *testing.T) {
	// Two identical suite runs over one cache dir must render the same
	// bytes, and the second must not write anything new to the store.
	dir := t.TempDir()
	args := []string{"-suite", "-subset", "c432", "-replicates", "2",
		"-patterns", "16", "-defense", "pin-swapping", "-attacker", "random",
		"-cache-dir", dir}
	var first strings.Builder
	if err := run(context.Background(), args, &first); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("first run persisted nothing")
	}
	var second strings.Builder
	if err := run(context.Background(), args, &second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatalf("resumed render differs:\n%s\n----\n%s", first.String(), second.String())
	}
	after, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(entries) {
		t.Fatalf("warm run grew the store from %d to %d entries", len(entries), len(after))
	}
}

func TestRunListDefenses(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-list-defenses"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "randomize-correction") {
		t.Fatalf("-list-defenses output:\n%s", out.String())
	}
}

func TestRunMatrixUnknownDefense(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-matrix", "-defense", "bogus"}, &out); err == nil ||
		!strings.Contains(err.Error(), "bogus") {
		t.Fatalf("unknown defense not rejected: %v", err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{"-exp", "table99"}, &out)
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("got %v, want unknown-experiment error", err)
	}
}

// TestRunExperimentTrimsSubset: -subset names are trimmed in every mode,
// the experiments included.
func TestRunExperimentTrimsSubset(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-exp", "fig6", "-subset", " c432", "-patterns", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "c432") {
		t.Fatalf("fig6 output misses c432:\n%s", out.String())
	}
}

// runMain runs the command as main does and returns its exit status and
// everything written to stderr, fs.Parse's own output included.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stderr
	os.Stderr = f
	code := cli.ExitCode("smbench", run(context.Background(), args, io.Discard), f)
	os.Stderr = saved
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out)
}

// TestMainExitStatus: -h prints the usage and exits 0, a flag error is
// printed once (by fs.Parse, with the usage) and exits 2, and a run error
// is printed once under the command's name and exits 1.
func TestMainExitStatus(t *testing.T) {
	if code, out := runMain(t, "-h"); code != 0 || !strings.Contains(out, "Usage of smbench:") || strings.Contains(out, "help requested") {
		t.Errorf("-h: exit %d, stderr %q", code, out)
	}
	if code, out := runMain(t, "-bogus"); code != 2 || strings.Count(out, "-bogus") != 1 {
		t.Errorf("-bogus: exit %d, stderr %q", code, out)
	}
	if code, out := runMain(t, "-exp", "nope"); code != 1 || !strings.HasPrefix(out, "smbench: ") || strings.Count(out, "\n") != 1 {
		t.Errorf("-exp nope: exit %d, stderr %q", code, out)
	}
}
