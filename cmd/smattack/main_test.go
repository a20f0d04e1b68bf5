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

func TestRunListAttackers(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"proximity", "crouting", "random", "greedy"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("-list output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunMultiAttacker(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{"-bench", "c432", "-attacker", "random,greedy", "-patterns", "16"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"random", "greedy", "CCR"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunCRoutingAttacker: crouting runs through Evaluate like every other
// engine; its report carries the candidate-list metrics and no CCR
// headline, since a metrics-only panel scores no layer.
func TestRunCRoutingAttacker(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{"-bench", "c432", "-attacker", "crouting", "-split", "3"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "avg_list_size_15") {
		t.Fatalf("crouting output missing candidate-list sizes:\n%s", out.String())
	}
	if strings.Contains(out.String(), "CCR") {
		t.Fatalf("metrics-only run printed a CCR headline:\n%s", out.String())
	}
}

// TestRunErrors: bad flags fail with an error naming what is wrong, and
// values the server would refuse fail the CLI's validation the same way.
func TestRunErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-bench", "c9999"}, "benchmark"},
		{[]string{"-bench", "c432", "-variant", "bogus"}, "variant"},
		{[]string{"-bench", "c432", "-attacker", "bogus"}, "bogus"},
		{[]string{"-bench", "c432", "-attacker", ""}, "empty attacker list"},
		{[]string{"-bench", "c432", "-split", "3,x"}, "-split"},
		{[]string{"-bench", "c432", "-scale", "-5"}, "scale"},
		{[]string{"-bench", "c432", "-split", "10"}, "WithSplitLayers"},
	} {
		var out strings.Builder
		if err := run(context.Background(), tc.args, &out); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("run(%v) = %v, want an error naming %q", tc.args, err, tc.want)
		}
	}
}

// TestRunSeedZeroIsDefault: like a server request, -seed 0 selects the
// default seed rather than the literal seed 0.
func TestRunSeedZeroIsDefault(t *testing.T) {
	outputs := map[string]string{}
	for _, seed := range []string{"0", "1"} {
		var out strings.Builder
		err := run(context.Background(), []string{"-bench", "c432", "-seed", seed, "-patterns", "8",
			"-attacker", "proximity,random"}, &out)
		if err != nil {
			t.Fatal(err)
		}
		outputs[seed] = out.String()
	}
	if outputs["0"] != outputs["1"] {
		t.Fatalf("-seed 0 differs from -seed 1:\n%s\n----\n%s", outputs["0"], outputs["1"])
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
	code := cli.ExitCode("smattack", run(context.Background(), args, io.Discard), f)
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
	if code, out := runMain(t, "-h"); code != 0 || !strings.Contains(out, "Usage of smattack:") || strings.Contains(out, "help requested") {
		t.Errorf("-h: exit %d, stderr %q", code, out)
	}
	if code, out := runMain(t, "-bogus"); code != 2 || strings.Count(out, "-bogus") != 1 {
		t.Errorf("-bogus: exit %d, stderr %q", code, out)
	}
	if code, out := runMain(t, "-bench", "nope"); code != 1 || !strings.HasPrefix(out, "smattack: ") || strings.Count(out, "\n") != 1 {
		t.Errorf("-bench nope: exit %d, stderr %q", code, out)
	}
}
