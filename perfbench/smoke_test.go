package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"splitmfg"
)

// tinySuite is a c432-only cut of iscas-suite.
var tinySuite = workload{name: "tiny-suite", nominal: time.Second, request: func(seed int64) splitmfg.JobRequest {
	r := workloads[0].request(seed)
	r.Benchmarks, r.PatternWords = []string{"c432"}, 16
	return r
}}

// tinyMatrix is superblue-matrix at a scale small enough for a unit test.
var tinyMatrix = workload{name: "tiny-matrix", nominal: time.Second, request: func(seed int64) splitmfg.JobRequest {
	r := workloads[1].request(seed)
	r.Scale = 1600
	return r
}}

// replayAndVerify measures w untraced for two rounds, replays it traced and
// checks the replay reproduces the report.
func replayAndVerify(t *testing.T, w workload) (*batchRun, *replayer, map[string]float64) {
	t.Helper()
	ctx := context.Background()
	b, err := measureBatch(ctx, w, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b.failed != 0 || b.attempted != 2 {
		t.Fatalf("%d of %d jobs failed: %v", b.failed, b.attempted, b.problems)
	}
	if b.wall <= 0 || b.cpu <= 0 || b.rssMiB <= 0 || len(b.setup) != setupRepeats {
		t.Errorf("implausible measurement: wall %v cpu %v rss %v setups %d", b.wall, b.cpu, b.rssMiB, len(b.setup))
	}
	rp := newReplayer(ctx, w.request(1))
	if err := rp.run(); err != nil {
		t.Fatal(err)
	}
	if bad := rp.verify(b.report); len(bad) > 0 {
		t.Fatalf("replay does not reproduce the report:\n%s", strings.Join(bad, "\n"))
	}
	vals, wall, _ := layerTimes(rp.rec.spans)
	if wall <= 0 {
		t.Errorf("replay wall %v", wall)
	}
	return b, rp, vals
}

func TestSmokeSuite(t *testing.T) {
	b, rp, vals := replayAndVerify(t, tinySuite)
	if vals["attack.proximity_s"] <= 0 || vals["attack.crouting_s"] != 0 {
		t.Errorf("suite should run proximity only: proximity %v s, crouting %v s", vals["attack.proximity_s"], vals["attack.crouting_s"])
	}
	if rp.counts["route.corridor_nets"] != 0 || rp.counts["route.nets"] == 0 {
		t.Errorf("ISCAS routing should be flat: %v corridor nets of %v", rp.counts["route.corridor_nets"], rp.counts["route.nets"])
	}

	// A report the replay did not produce must not verify.
	var tampered splitmfg.SuiteReport
	if err := json.Unmarshal(b.data, &tampered); err != nil {
		t.Fatal(err)
	}
	tampered.PerBenchmark[0].Rows[0].PowerOHPct.Mean += 1e-6
	if bad := rp.verify(&tampered); len(bad) != 1 || !strings.Contains(bad[0], "power overhead mean") {
		t.Errorf("tampered power overhead: verify reported %v", bad)
	}
}

func TestSmokeMatrix(t *testing.T) {
	_, rp, vals := replayAndVerify(t, tinyMatrix)
	if vals["attack.crouting_s"] <= 0 || vals["attack.proximity_s"] != 0 {
		t.Errorf("matrix should run crouting only: crouting %v s, proximity %v s", vals["attack.crouting_s"], vals["attack.proximity_s"])
	}
	if rp.counts["attack.crouting_vpins"] <= 0 {
		t.Errorf("crouting saw no vpins")
	}
}

// TestSmokeServe drives a freshly built smserve with four requests.
func TestSmokeServe(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "smserve")
	build := exec.Command("go", "build", "-o", bin, "splitmfg/cmd/smserve")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build smserve: %v\n%s", err, out)
	}
	s, err := measureServe(context.Background(), bin, filepath.Join(dir, "work"), serveStream(1, 1)[:4])
	if err != nil {
		t.Fatal(err)
	}
	if s.failed != 0 || s.attempted != 4 {
		t.Fatalf("%d of %d requests failed: %v", s.failed, s.attempted, s.problems)
	}
	v := s.values()
	for _, name := range []string{"setup_s", "wall_s", "cpu_s", "peak_rss_mb", "jobs_per_s", "job_p50_s", "job_p90_s", "store.entries"} {
		if v[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, v[name])
		}
	}
	if got := v["server.cache_misses"] + v["server.cache_hits"] + v["server.disk_hits"]; got != 4 {
		t.Errorf("server saw %v cache lookups, want 4", got)
	}
	rec := newRecorder()
	s.spans(rec)
	if len(rec.spans) != 16 {
		t.Errorf("%d client spans, want 4 per request", len(rec.spans))
	}
}

func TestServeStreamIsSeededAndBalanced(t *testing.T) {
	passes := workloads[2].passes(25)
	a, b := serveStream(7, passes), serveStream(7, passes)
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Fatal("the same seed gave different streams")
	}
	if len(a) < serveMinRequests {
		t.Errorf("%d requests, want at least %d", len(a), serveMinRequests)
	}
	seen := map[string]int{}
	pairs := map[string]int{}
	repeats := 0
	for _, r := range a {
		if seen[r.CacheKey()]++; seen[r.CacheKey()] > 1 {
			repeats++
			continue
		}
		pairs[string(r.Kind)+"/"+r.Benchmark]++
	}
	if len(pairs) != len(serveKinds)*len(serveDesigns) {
		t.Errorf("stream covers %d (kind, design) pairs, want all %d", len(pairs), len(serveKinds)*len(serveDesigns))
	}
	for pair, n := range pairs {
		if n != passes {
			t.Errorf("%s: %d fresh requests, want one per pass (%d)", pair, n, passes)
		}
	}
	if share := float64(repeats) / float64(len(a)); math.Abs(share-serveRepeatShare) > 0.01 {
		t.Errorf("repeat share %.3f, want %.1f", share, serveRepeatShare)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "iscas-suite", "-trace", "2"},
		{"-workload", "iscas-suite", "-seconds", "0"},
		{"-workload", "iscas-suite", "extra"},
	} {
		if err := run(context.Background(), args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	bf := benchFile{EndToEnd: []benchMetric{{Name: "wall_s", Better: "lower", Bound: 0.1}}}
	mk := func(dir string, scale float64) []record {
		var recs []record
		for seed := int64(1); seed <= 10; seed++ {
			r := record{Workload: "w", Seed: seed, Result: result{Metrics: map[string]metric{
				"wall_s": {Value: scale * (10 + float64(seed%3)/10), Unit: "s"}}}}
			recs = append(recs, r)
			data, _ := json.Marshal(r)
			if err := os.WriteFile(filepath.Join(dir, "r"+string(rune('a'+seed))+".json"), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return recs
	}
	base := mk(t.TempDir(), 1)
	for _, c := range []struct {
		scale float64
		want  string
	}{{1, "within bound"}, {1.3, "regression"}, {0.7, "gain"}} {
		rows := compareRows(bf, base, mk(t.TempDir(), c.scale))
		if len(rows) != 1 || !strings.HasPrefix(rows[0].verdict, c.want) {
			t.Errorf("scale %v: rows %+v, want verdict %q", c.scale, rows, c.want)
		}
	}

	oldDir, newDir := t.TempDir(), t.TempDir()
	mk(oldDir, 1)
	mk(newDir, 1.3)
	benchPath := filepath.Join(t.TempDir(), "BENCHMARK.json")
	data, _ := json.Marshal(bf)
	if err := os.WriteFile(benchPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(context.Background(), []string{"compare", "-bench", benchPath, oldDir, newDir}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "regression") {
		t.Errorf("compare output lacks the regression:\n%s", out.String())
	}
}
