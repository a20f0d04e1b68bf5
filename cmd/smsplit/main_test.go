package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"splitmfg/cmd/internal/cli"
)

func TestRunWritesSplitArtifacts(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "c432")
	var out strings.Builder
	if err := run(context.Background(), []string{"-bench", "c432", "-layer", "3", "-o", prefix}, &out); err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{"_feol.def", ".rt", ".out"} {
		fi, err := os.Stat(prefix + suffix)
		if err != nil {
			t.Fatalf("missing artifact %s: %v", suffix, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("artifact %s is empty", suffix)
		}
	}
	if !strings.Contains(out.String(), "split after M3") {
		t.Fatalf("missing split summary:\n%s", out.String())
	}
}

func TestRunBadLayerLeavesNoArtifacts(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "bad")
	var out strings.Builder
	if err := run(context.Background(), []string{"-bench", "c432", "-layer", "99", "-o", prefix}, &out); err == nil {
		t.Fatal("split at M99 succeeded, want error")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("bad layer left partial artifacts: %v", entries)
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
	code := cli.ExitCode("smsplit", run(context.Background(), args, io.Discard), f)
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
	if code, out := runMain(t, "-h"); code != 0 || !strings.Contains(out, "Usage of smsplit:") || strings.Contains(out, "help requested") {
		t.Errorf("-h: exit %d, stderr %q", code, out)
	}
	if code, out := runMain(t, "-bogus"); code != 2 || strings.Count(out, "-bogus") != 1 {
		t.Errorf("-bogus: exit %d, stderr %q", code, out)
	}
	if code, out := runMain(t, "-bench", "nope"); code != 1 || !strings.HasPrefix(out, "smsplit: ") || strings.Count(out, "\n") != 1 {
		t.Errorf("-bench nope: exit %d, stderr %q", code, out)
	}
}
