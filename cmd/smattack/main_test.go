package main

import (
	"context"
	"strings"
	"testing"
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
