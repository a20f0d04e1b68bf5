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
	for _, want := range []string{"proximity", "crouting", "random", "greedy", "ensemble"} {
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

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-bench", "c9999"},                      // unknown benchmark
		{"-bench", "c432", "-variant", "bogus"},  // unknown variant
		{"-bench", "c432", "-attacker", "bogus"}, // unknown engine
		{"-bench", "c432", "-attacker", ""},      // empty engine list
		{"-bench", "c432", "-split", "3,x"},      // malformed split list
	}
	for _, args := range cases {
		var out strings.Builder
		if err := run(context.Background(), args, &out); err == nil {
			t.Fatalf("run(%v) succeeded, want error", args)
		}
	}
}
