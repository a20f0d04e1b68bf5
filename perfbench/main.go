// Command perfbench is the repository's end-to-end benchmark. It runs one
// seeded workload, prints every metric by name with its unit, checks every
// output, and ends with one JSON line:
//
//	{"correct": true, "attempted": 2, "failed": 0, "metrics": {"wall_s": {"value": 40.1, "unit": "s"}, ...}}
//
// Workloads (see workloads.go for why each exists):
//
//	iscas-suite       one suite job over six ISCAS-85 designs, proximity attacker
//	superblue-matrix  one matrix job on superblue18 at scale 100, crouting attacker
//	serve-mix         a child smserve driven by two closed-loop HTTP clients
//
// With -trace 0 a run measures the end-to-end metrics with tracing off.
// With -trace 1 a batch run executes the job once untraced for its report,
// then replays it serially through the layers' public functions with a
// span around every call, fails if the replay does not reproduce the
// report's deterministic values, and prints the per-layer metrics; the
// spans are written as a Chrome trace-event file that Perfetto or
// chrome://tracing opens. serve-mix takes its per-layer metrics from the
// client's timings, the job timestamps and /v1/stats, and writes the
// client's spans as a trace.
//
// Every run also saves its result, stamped with the Go version, GOMAXPROCS,
// nproc, CPU model, commit and workload seed, under <out>/results. The
// compare subcommand reads two such result sets:
//
//	perfbench compare -bench BENCHMARK.json OLD_RESULTS NEW_RESULTS
//
// Build and run it from the repository root with perfbench/run.sh, which
// also builds the smserve binary serve-mix drives:
//
//	bash perfbench/run.sh --workload iscas-suite --seed 1 --seconds 25 --trace 0
//
// The benchmark is a Go module of its own; run its tests from perfbench/
// with go test ./...
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// options are one run's settings.
type options struct {
	workload workload
	seed     int64
	seconds  int
	trace    bool
	smserve  string // smserve binary for serve-mix
	out      string // results, traces and server state
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: iscas-suite, superblue-matrix or serve-mix")
	seed := fs.Int64("seed", 1, "workload seed: the jobs' master seed, or the seed of the request stream")
	seconds := fs.Int("seconds", 25, "how long the run should measure; sizes the work at the seed commit's speed")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	smserve := fs.String("smserve", "", "smserve binary serve-mix drives")
	out := fs.String("out", ".bench_build", "directory for results, traces and server state")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 && fs.Arg(0) == "compare" {
		return runCompare(fs.Args()[1:], stdout)
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(names, ", "))
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	o := options{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		smserve: *smserve, out: *out}
	rec, err := measure(ctx, o, stdout)
	if err != nil {
		return err
	}
	if err := saveRecord(o, rec); err != nil {
		return err
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// record is one run's saved result, the input of compare.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	Stamp    stamp  `json:"stamp"`
	Result   result `json:"result"`
}

// outcome is what one mode measured: metric values, and how many jobs it
// attempted and how many errored or failed a check.
type outcome struct {
	vals      map[string]float64
	attempted int
	failed    int
	problems  []string
}

// measure runs the workload in the mode o asks for and prints the human
// part of the report.
func measure(ctx context.Context, o options, stdout io.Writer) (record, error) {
	rec := record{Workload: o.workload.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Stamp: newStamp(".", o.seed)}
	st := rec.Stamp
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%d trace=%t\n", o.workload.name, o.seed, o.seconds, o.trace)
	fmt.Fprintf(stdout, "env: %s GOMAXPROCS=%d nproc=%d cpu=%q commit=%s source=%s\n",
		st.GoVersion, st.GOMAXPROCS, st.NumCPU, st.CPUModel, st.Commit, st.SourceHash)
	var out outcome
	var err error
	switch {
	case o.workload.request == nil:
		out, err = serveMode(ctx, o, stdout)
	case o.trace:
		out, err = tracedBatch(ctx, o, stdout)
	default:
		out, err = untracedBatch(ctx, o, stdout)
	}
	if err != nil {
		return rec, err
	}
	for _, p := range out.problems {
		fmt.Fprintf(stdout, "FAIL %s\n", p)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-40s %14.6g %s\n", d.name, out.vals[d.name], d.unit)
	}
	fmt.Fprintf(stdout, "%-40s %14.6g ratio (%d of %d jobs failed)\n", "fail_ratio",
		float64(out.failed)/float64(out.attempted), out.failed, out.attempted)
	rec.Result = result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: collect(defs, out.vals)}
	return rec, nil
}

// untracedBatch measures the end-to-end metrics of a batch workload.
func untracedBatch(ctx context.Context, o options, stdout io.Writer) (outcome, error) {
	b, err := measureBatch(ctx, o.workload, o.seed, o.workload.rounds(o.seconds))
	if err != nil {
		return outcome{}, err
	}
	v := map[string]float64{
		"setup_s":     median(b.setup),
		"wall_s":      b.wall,
		"cpu_s":       b.cpu,
		"peak_rss_mb": b.rssMiB,
		"jobs_per_s":  float64(b.attempted-b.failed) / b.wall,
		"job_p50_s":   median(b.jobs),
		"job_p90_s":   percentile(b.jobs, 90),
	}
	fmt.Fprintf(stdout, "jobs: %d, p90 over %d samples with %d beyond it\n", len(b.jobs), len(b.jobs), beyond(b.jobs, v["job_p90_s"]))
	printReportValues(stdout, reportValues(b.report))
	return outcome{v, b.attempted, b.failed, b.problems}, nil
}

// tracedBatch runs the job once untraced for its report, then replays it
// under spans and checks the replay against the report.
func tracedBatch(ctx context.Context, o options, stdout io.Writer) (outcome, error) {
	b, err := measureBatch(ctx, o.workload, o.seed, 1)
	if err != nil {
		return outcome{}, err
	}
	runtime.GC()
	rp := newReplayer(ctx, o.workload.request(o.seed))
	out := outcome{attempted: b.attempted + 1, failed: b.failed, problems: b.problems}
	var bad []string
	if err := rp.run(); err != nil {
		bad = []string{fmt.Sprintf("replay: %v", err)}
	} else if b.report != nil {
		for _, m := range rp.verify(b.report) {
			bad = append(bad, "replay mismatch: "+m)
		}
	}
	if len(bad) > 0 {
		out.failed++
		out.problems = append(out.problems, bad...)
	}
	vals, wall, unattributed := layerTimes(rp.rec.spans)
	//smlint:ordered independent per-key copies into a map
	for k, v := range rp.counts {
		vals[k] = v
	}
	if n := vals["route.corridor_nets"]; n > 0 {
		vals["route.flat_fallback_ratio"] = vals["route.flat_fallbacks"] / n
	}
	//smlint:ordered independent per-key copies into a map
	for k, v := range reportValues(b.report) {
		vals[k] = v
	}
	vals["replay.wall_s"] = wall
	if wall > 0 {
		vals["replay.unattributed_pct"] = 100 * unattributed / wall
	}
	out.vals = vals
	path := filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", o.workload.name, o.seed))
	if err := writeChromeTrace(path, rp.rec.spans); err != nil {
		return outcome{}, err
	}
	// The replay is serial, so its wall time compares with a job's CPU
	// time; the difference is the tracing and replay overhead.
	fmt.Fprintf(stdout, "replay: %.3f s serial, %.2f%% unattributed; untraced job here: %.3f s wall, %.3f s CPU",
		wall, vals["replay.unattributed_pct"], b.wall, b.cpu)
	if wallMed, cpuMed, n := savedPerJob(o); n > 0 {
		fmt.Fprintf(stdout, "; saved untraced runs (n=%d): median %.3f s wall, %.3f s CPU per job", n, wallMed, cpuMed)
	}
	fmt.Fprintf(stdout, "\ntrace: %s (%d spans)\n", path, len(rp.rec.spans))
	return out, nil
}

// serveMode runs serve-mix; the traced mode reports the server and store
// layers and writes the client's spans as a trace.
func serveMode(ctx context.Context, o options, stdout io.Writer) (outcome, error) {
	stream := serveStream(o.seed, o.workload.passes(o.seconds))
	s, err := measureServe(ctx, o.smserve, filepath.Join(o.out, "serve"), stream)
	if err != nil {
		return outcome{}, err
	}
	v := s.values()
	lat := s.latencies()
	fmt.Fprintf(stdout, "requests: %d, p90 over %d samples with %d beyond it\n", len(s.samples), len(lat), beyond(lat, v["job_p90_s"]))
	st := s.stats.Cache
	fmt.Fprintf(stdout, "server cache: %d hits, %d disk hits, %d misses, %d evictions; store: %d entries, %d bytes, %d quarantined\n",
		st.Hits, st.DiskHits, st.Misses, st.Evictions, s.store.entries, s.store.bytes, s.store.quarantined)
	if o.trace {
		rec := newRecorder()
		rec.origin = s.start
		s.spans(rec)
		path := filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", o.workload.name, o.seed))
		if err := writeChromeTrace(path, rec.spans); err != nil {
			return outcome{}, err
		}
		fmt.Fprintf(stdout, "trace: %s (%d spans)\n", path, len(rec.spans))
	}
	return outcome{v, s.attempted, s.failed, s.problems}, nil
}

// printReportValues prints a batch report's deterministic numbers.
func printReportValues(w io.Writer, vals map[string]float64) {
	var parts []string
	for _, k := range sortedKeys(vals) {
		parts = append(parts, fmt.Sprintf("%s=%.4f", k, vals[k]))
	}
	fmt.Fprintf(w, "report: %s\n", strings.Join(parts, " "))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	//smlint:ordered the keys are sorted before they are returned
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// resultsDir is where runs save their records.
func resultsDir(out string) string { return filepath.Join(out, "results") }

func saveRecord(o options, rec record) error {
	dir := resultsDir(o.out)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s.seed%d.trace%d.%d.json", rec.Workload, rec.Seed, boolInt(rec.Trace), time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// savedPerJob is the median per-job wall and CPU time over the saved
// untraced runs of o's workload, with their count.
func savedPerJob(o options) (wall, cpu float64, n int) {
	recs, err := loadRecords(resultsDir(o.out))
	if err != nil {
		return 0, 0, 0
	}
	var walls, cpus []float64
	for _, r := range recs {
		m := r.Result.Metrics
		if r.Workload == o.workload.name && !r.Trace && r.Result.Attempted > 0 {
			walls = append(walls, m["job_p50_s"].Value)
			cpus = append(cpus, m["cpu_s"].Value/float64(r.Result.Attempted))
		}
	}
	return median(walls), median(cpus), len(walls)
}

// loadRecords reads every saved record in dir.
func loadRecords(dir string) ([]record, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var recs []record
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name(), err)
		}
		recs = append(recs, r)
	}
	if len(recs) == 0 {
		return nil, errors.New("no results in " + dir)
	}
	return recs, nil
}
