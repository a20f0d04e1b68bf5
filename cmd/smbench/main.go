// Command smbench regenerates the paper's tables and figures.
//
// Usage:
//
//	smbench -exp all                 # everything (slow)
//	smbench -exp table4 -subset c432,c880
//	smbench -exp table2 -scale 300
//	smbench -exp fig4 > fig4.csv
//
// Experiments: table1 table2 table3 table4 table5 table6 fig4 fig5 fig6
// ppa ablation.
//
// With -matrix it instead runs the defense×attacker cross matrix on each
// benchmark of the subset (default c432):
//
//	smbench -matrix -subset c432,c880 -defense randomize-correction,pin-swapping -attacker proximity,random
//	smbench -list-defenses
//
// With -suite it runs the multi-benchmark, multi-seed suite behind the
// paper's Tables 4/5 aggregates: every benchmark of the subset (default:
// the full ISCAS-85 + superblue catalog) × every -defense × every
// -attacker × -replicates derived seeds, scheduled through one shared
// worker pool with a result cache so each benchmark's unprotected
// baseline is built exactly once:
//
//	smbench -suite -subset c432,c880,c1908 -replicates 3
//
// Ctrl-C cancels -matrix and -suite runs promptly; output for a benchmark
// is only written once its evaluation completed, so an interrupted run
// never leaves a partially rendered table. -v streams per-stage progress
// for -matrix/-suite plus per-experiment markers to stderr, the same flag
// every splitmfg CLI uses.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"

	"splitmfg"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "smbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	// Every job flag writes a field of one request: -matrix and -suite run
	// it, and the experiments read its seed, scale and pattern depth.
	req := splitmfg.JobRequest{
		Scale:        300,
		Seed:         1,
		PatternWords: 256,
		Attackers:    []string{"proximity"},
		Defenses:     []string{"randomize-correction", "naive-lifted", "pin-swapping"},
		Replicates:   3,
	}
	fs := flag.NewFlagSet("smbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment id (table1..table6, fig4, fig5, fig6, ppa, ablation, all)")
	fs.IntVar(&req.Scale, "scale", req.Scale, "superblue scale divisor (1 = full size)")
	fs.Int64Var(&req.Seed, "seed", req.Seed, "master seed (0 means the default)")
	fs.IntVar(&req.PatternWords, "patterns", req.PatternWords, "64-pattern words for OER/HD (256 = 16384 patterns)")
	fs.Func("subset", "comma-separated benchmark `names` (default: all; c432 for -matrix)", func(s string) error {
		req.Benchmarks = nil
		if s == "" { // the default subset
			return nil
		}
		for _, name := range strings.Split(s, ",") {
			req.Benchmarks = append(req.Benchmarks, strings.TrimSpace(name))
		}
		return nil
	})
	fig4Design := fs.String("fig4design", "superblue18", "design for fig4/fig5 series")
	fs.Func("defense", "comma-separated defense `schemes` for -matrix / -suite (default randomize-correction,naive-lifted,pin-swapping)",
		func(s string) (err error) {
			req.Defenses, err = splitmfg.ParseDefenses(s)
			return err
		})
	fs.Func("attacker", "comma-separated attacker `engines` for -matrix / -suite (default proximity)", func(s string) (err error) {
		req.Attackers, err = splitmfg.ParseAttackers(s)
		return err
	})
	matrix := fs.Bool("matrix", false, "run the defense x attacker cross matrix on the subset instead of an experiment")
	suite := fs.Bool("suite", false, "run the multi-benchmark multi-seed suite on the subset instead of an experiment")
	fs.IntVar(&req.Replicates, "replicates", req.Replicates, "seed replicates per suite cell (-suite only)")
	cacheDir := fs.String("cache-dir", "", "disk-backed result store: checkpoint every completed suite cell so a killed run resumes (-suite only)")
	fs.StringVar(&req.RouteStrategy, "route-strategy", "", "routing strategy for -matrix / -suite: auto (default, picks by die area), flat, or hier")
	listDefenses := fs.Bool("list-defenses", false, "list the registered defense schemes and exit")
	verbose := fs.Bool("v", false, "stream per-stage progress to stderr")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write an allocation heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		// Deferred so the profile covers the whole run, whatever path it
		// takes below. GC first so the snapshot reflects live objects, not
		// garbage awaiting collection.
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "smbench: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "smbench: -memprofile:", err)
			}
		}()
	}

	if *listDefenses {
		for _, name := range splitmfg.Defenses() {
			fmt.Fprintln(stdout, name)
		}
		return nil
	}
	if *matrix && *suite {
		return fmt.Errorf("-matrix and -suite are mutually exclusive")
	}
	// Reject rather than silently no-op: -replicates only means something
	// to the suite scheduler (mirrors smflow's -replicates guard).
	replicatesSet := false
	fs.Visit(func(f *flag.Flag) { replicatesSet = replicatesSet || f.Name == "replicates" })
	if replicatesSet && !*suite {
		return fmt.Errorf("-replicates only applies to -suite runs")
	}
	if *cacheDir != "" && !*suite {
		return fmt.Errorf("-cache-dir only applies to -suite runs")
	}
	// The table/figure experiments pin the paper's setup (auto strategy
	// included), so the knob only applies to the pipeline-backed modes.
	if req.RouteStrategy != "" && !*matrix && !*suite {
		return fmt.Errorf("-route-strategy only applies to -matrix / -suite runs")
	}
	var extra []splitmfg.Option
	if *verbose {
		extra = append(extra, splitmfg.WithProgress(splitmfg.ProgressLogger(os.Stderr)))
	}
	if *matrix {
		return runMatrix(ctx, stdout, req, extra)
	}
	if *suite {
		// Output is buffered until the whole suite completed, so
		// cancellation leaves none; with -cache-dir every completed cell is
		// already checkpointed, so a rerun recomputes only what was in
		// flight.
		req.Kind = splitmfg.JobSuite
		if len(req.Benchmarks) == 0 {
			req.Benchmarks = splitmfg.Benchmarks()
		}
		if *cacheDir != "" {
			extra = append(extra, splitmfg.WithCacheDir(*cacheDir))
		}
		rep, err := req.Run(ctx, extra...)
		if err != nil {
			return err
		}
		_, err = io.WriteString(stdout, splitmfg.RenderSuite(rep.(*splitmfg.SuiteReport)))
		return err
	}

	cfg := splitmfg.ExperimentConfig{
		Seed:           req.Seed,
		SuperblueScale: req.Scale,
		PatternWords:   req.PatternWords,
		ISCASSubset:    req.Benchmarks,
		Verbose:        *verbose,
	}

	if *exp != "all" && *exp != "fig4" {
		known := false
		for _, name := range splitmfg.Experiments() {
			known = known || name == *exp
		}
		if !known {
			return fmt.Errorf("unknown experiment %q (have fig4, %s)",
				*exp, strings.Join(splitmfg.Experiments(), ", "))
		}
	}

	runOne := func(name string, f func() error) error {
		if *exp != "all" && *exp != name {
			return nil
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "smbench: running %s\n", name)
		}
		fmt.Fprintf(stdout, "== %s ==\n", name)
		if err := f(); err != nil {
			return fmt.Errorf("%s: %v", name, err)
		}
		fmt.Fprintln(stdout)
		return nil
	}

	table := func(name string) func() error {
		return func() error {
			t, err := splitmfg.RunExperiment(name, cfg)
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, t.Render())
			return nil
		}
	}

	for _, name := range []string{"table1", "table2", "table3", "table4", "table5", "table6"} {
		if err := runOne(name, table(name)); err != nil {
			return err
		}
	}
	if err := runOne("fig4", func() error {
		csv, err := splitmfg.Fig4CSV(*fig4Design, cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, csv)
		return nil
	}); err != nil {
		return err
	}
	if err := runOne("fig5", func() error {
		t, err := splitmfg.Fig5(*fig4Design, cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, t.Render())
		return nil
	}); err != nil {
		return err
	}
	for _, name := range []string{"fig6", "ppa", "ablation"} {
		if err := runOne(name, table(name)); err != nil {
			return err
		}
	}
	return nil
}

// runMatrix renders the defense×attacker cross matrix for every benchmark
// of the request's subset (default c432), one matrix job each. Every job
// is validated before the first runs. The context cancels the evaluation
// between and within benchmarks; each benchmark's table is buffered and
// only written once its evaluation completed, so Ctrl-C never leaves a
// partially rendered table.
func runMatrix(ctx context.Context, stdout io.Writer, req splitmfg.JobRequest, extra []splitmfg.Option) error {
	names := req.Benchmarks
	if len(names) == 0 {
		names = []string{"c432"}
	}
	req.Kind, req.Benchmarks = splitmfg.JobMatrix, nil
	jobs := make([]splitmfg.JobRequest, len(names))
	for i, name := range names {
		jobs[i] = req
		jobs[i].Benchmark = name
		if err := jobs[i].Validate(); err != nil {
			return err
		}
	}
	for _, job := range jobs {
		if err := ctx.Err(); err != nil {
			return err
		}
		rep, err := job.Run(ctx, extra...)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		fmt.Fprint(&buf, splitmfg.RenderMatrix(rep.(*splitmfg.MatrixReport)))
		fmt.Fprintln(&buf)
		if _, err := stdout.Write(buf.Bytes()); err != nil {
			return err
		}
	}
	return nil
}
