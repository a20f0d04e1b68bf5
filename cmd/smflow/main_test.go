package main

import (
	"context"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"splitmfg"
)

func TestRunJSONReports(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{"-bench", "c432", "-attempts", "1", "-patterns", "16", "-json"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	// Two JSON documents: ProtectReport then SecurityReport.
	dec := json.NewDecoder(strings.NewReader(out.String()))
	var docs []map[string]interface{}
	for dec.More() {
		var doc map[string]interface{}
		if err := dec.Decode(&doc); err != nil {
			t.Fatalf("invalid JSON output: %v\n%s", err, out.String())
		}
		docs = append(docs, doc)
	}
	if len(docs) != 2 {
		t.Fatalf("got %d JSON documents, want 2", len(docs))
	}
	if _, ok := docs[0]["erroneous_oer"]; !ok {
		t.Fatalf("first document is not a protect report: %v", docs[0])
	}
	if _, ok := docs[1]["attackers"]; !ok {
		t.Fatalf("security report has no attackers section: %v", docs[1])
	}
}

func TestRunDEFExport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "c432.def")
	var buf strings.Builder
	err := run(context.Background(), []string{"-bench", "c432", "-attempts", "1", "-patterns", "16",
		"-attacker", "random", "-out", out}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "wrote") {
		t.Fatalf("missing DEF write confirmation:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "random") {
		t.Fatalf("missing per-attacker section:\n%s", buf.String())
	}
}

func TestRunListDefenses(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-list-defenses"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"randomize-correction", "naive-lifted", "pin-swapping", "sengupta-gcolor"} {
		if !strings.Contains(out.String(), name) {
			t.Fatalf("-list-defenses misses %q:\n%s", name, out.String())
		}
	}
}

func TestRunMatrixJSON(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{"-bench", "c432", "-matrix", "-patterns", "16", "-json",
		"-defense", "pin-swapping,sengupta-gcolor", "-attacker", "random"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Defenses []string `json:"defenses"`
		Rows     []struct {
			Defense string `json:"defense"`
			Cells   []struct {
				Attacker string `json:"attacker"`
			} `json:"cells"`
		} `json:"rows"`
	}
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("invalid matrix JSON: %v\n%s", err, out.String())
	}
	if len(rep.Rows) != 2 || rep.Rows[0].Defense != "pin-swapping" ||
		len(rep.Rows[0].Cells) != 1 || rep.Rows[0].Cells[0].Attacker != "random" {
		t.Fatalf("unexpected matrix shape: %+v", rep)
	}
	// -matrix is a front end for a matrix request: same report, same bytes.
	want, err := splitmfg.JobRequest{Kind: splitmfg.JobMatrix, Benchmark: "c432", PatternWords: 16,
		Defenses: []string{"pin-swapping", "sengupta-gcolor"}, Attackers: []string{"random"}}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := splitmfg.MarshalReport(want)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(b)+"\n" {
		t.Fatalf("smflow -matrix -json differs from the request's report:\n%s\n----\n%s", out.String(), b)
	}
}

func TestRunMatrixTable(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{"-bench", "c432", "-matrix", "-patterns", "16",
		"-defense", "pin-swapping", "-attacker", "random"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "defense x attacker matrix") ||
		!strings.Contains(out.String(), "pin-swapping") {
		t.Fatalf("matrix table missing:\n%s", out.String())
	}
}

func TestRunMatrixReplicatesSuite(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{"-bench", "c432", "-matrix", "-patterns", "16",
		"-replicates", "2", "-defense", "pin-swapping", "-attacker", "random"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "suite: 1 benchmarks") || !strings.Contains(s, "2 replicate(s)") ||
		!strings.Contains(s, "pin-swapping") {
		t.Fatalf("replicated matrix output missing suite sections:\n%s", s)
	}
}

func TestRunReplicatesRequiresMatrix(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-bench", "c432", "-replicates", "2"}, &out); err == nil ||
		!strings.Contains(err.Error(), "-replicates") {
		t.Fatalf("got %v, want -replicates usage error", err)
	}
}

// TestRunErrors: bad flags fail with an error naming what is wrong, and
// values the server would refuse fail the CLI's validation the same way.
func TestRunErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-bench", "nope"}, "benchmark"},
		{[]string{"-attacker", "bogus"}, "bogus"},
		{[]string{"-attacker", ","}, "empty attacker list"},
		{[]string{"-defense", "bogus"}, "bogus"},
		{[]string{"-defense", ","}, "empty defense list"},
		{[]string{"-matrix", "-out", "x.def"}, "-out"}, // matrix exports no layout: reject, don't silently no-op
		{[]string{"-bench", "c432", "-scale", "-5"}, "scale"},
		{[]string{"-bench", "c432", "-lift", "7"}, "WithLiftLayer"},
		{[]string{"-bench", "c432", "-util", "96"}, "WithUtilization"},
	} {
		var buf strings.Builder
		if err := run(context.Background(), tc.args, &buf); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("run(%v) = %v, want an error naming %q", tc.args, err, tc.want)
		}
	}
}
