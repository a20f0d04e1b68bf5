// Command smflow runs the full protection flow (Fig. 2 of the paper) on a
// benchmark and writes the protected layout as DEF, plus the erroneous
// netlist as Verilog, plus a PPA/security report to stdout.
//
// Usage:
//
//	smflow -bench c432 -lift 6 -budget 20 -out c432_protected.def
//	smflow -bench superblue18 -scale 300 -lift 8 -budget 5
//	smflow -bench c880 -json -v
//	smflow -bench c432 -attacker proximity,greedy,random
//
// With -matrix it instead runs the defense×attacker cross-matrix
// evaluation behind the paper's Tables 4/5: every -defense scheme is
// built and every -attacker engine is run against it at each split layer.
//
//	smflow -bench c432 -matrix -defense randomize-correction,naive-lifted,pin-swapping -attacker proximity,greedy,random
//	smflow -list-defenses
//
// With -replicates n (n > 1) the matrix runs as a one-benchmark suite:
// every (defense, attacker) cell is evaluated under n derived seed
// streams and reported as mean ± standard deviation.
//
//	smflow -bench c880 -matrix -replicates 3
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"splitmfg"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "smflow:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	// Every job flag writes a field of one request: -matrix runs it, and
	// the protect flow builds its pipeline from the request's options.
	req := splitmfg.JobRequest{
		Kind:       splitmfg.JobProtect,
		Benchmark:  "c432",
		Scale:      300,
		Seed:       1,
		Attackers:  []string{"proximity"},
		Defenses:   []string{"randomize-correction", "naive-lifted", "pin-swapping"},
		Replicates: 1,
	}
	fs := flag.NewFlagSet("smflow", flag.ContinueOnError)
	fs.StringVar(&req.Benchmark, "bench", req.Benchmark, "benchmark (c432..c7552 or superblue1/5/10/12/18)")
	fs.IntVar(&req.LiftLayer, "lift", 0, "lift layer, 6 or 8 (default: 6 for ISCAS, 8 for superblue)")
	fs.Float64Var(&req.PPABudget, "budget", 0, "PPA budget percent (default: 20 ISCAS, 5 superblue)")
	fs.IntVar(&req.Scale, "scale", req.Scale, "superblue scale divisor")
	fs.Int64Var(&req.Seed, "seed", req.Seed, "seed (0 means the default)")
	fs.IntVar(&req.Utilization, "util", 0, "placement utilization, at most 95 (default: 70 ISCAS, published superblue values)")
	fs.Func("attacker", "comma-separated attacker `engines` for the security evaluation (default proximity)",
		func(s string) (err error) {
			req.Attackers, err = splitmfg.ParseAttackers(s)
			return err
		})
	fs.Func("defense", "comma-separated defense `schemes` for -matrix (default randomize-correction,naive-lifted,pin-swapping)",
		func(s string) (err error) {
			req.Defenses, err = splitmfg.ParseDefenses(s)
			return err
		})
	matrix := fs.Bool("matrix", false, "run the defense x attacker cross-matrix evaluation instead of the protect flow")
	fs.IntVar(&req.Replicates, "replicates", req.Replicates, "seed replicates for -matrix (>1 reports mean ± std via the suite scheduler)")
	listDefenses := fs.Bool("list-defenses", false, "list the registered defense schemes and exit")
	fs.IntVar(&req.PatternWords, "patterns", 0, "64-pattern words for OER/HD (default 256)")
	fs.StringVar(&req.RouteStrategy, "route-strategy", "", "routing strategy: auto (default, picks by die area), flat, or hier")
	fs.IntVar(&req.MaxAttempts, "attempts", 0, "escalation attempts (default 6; 1 = no escalation)")
	out := fs.String("out", "", "write protected-layout DEF to this file")
	vout := fs.String("verilog", "", "write the erroneous (FEOL) netlist as Verilog to this file")
	jsonOut := fs.Bool("json", false, "emit the protect+security reports as JSON")
	verbose := fs.Bool("v", false, "stream per-stage progress to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *listDefenses {
		for _, name := range splitmfg.Defenses() {
			fmt.Fprintln(stdout, name)
		}
		return nil
	}
	if req.Replicates > 1 && !*matrix {
		return fmt.Errorf("-replicates only applies to -matrix runs")
	}
	if *matrix {
		if *out != "" || *vout != "" {
			return fmt.Errorf("-matrix evaluates many layouts and exports none: drop -out/-verilog")
		}
		// Multi-seed: the one-benchmark suite reports mean ± std over the
		// replicates' derived seed streams.
		req.Kind = splitmfg.JobMatrix
		if req.Replicates > 1 {
			req.Kind = splitmfg.JobSuite
		}
	}
	if err := req.Validate(); err != nil {
		return err
	}
	var extra []splitmfg.Option
	if *verbose {
		extra = append(extra, splitmfg.WithProgress(splitmfg.ProgressLogger(os.Stderr)))
	}

	if *matrix {
		rep, err := req.Run(ctx, extra...)
		if err != nil {
			return err
		}
		if *jsonOut {
			b, err := splitmfg.MarshalReport(rep)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, string(b))
			return nil
		}
		switch rep := rep.(type) {
		case *splitmfg.SuiteReport:
			fmt.Fprint(stdout, splitmfg.RenderSuite(rep))
		case *splitmfg.MatrixReport:
			fmt.Fprint(stdout, splitmfg.RenderMatrix(rep))
		}
		return nil
	}
	design, err := splitmfg.LoadBenchmark(req.Benchmark, splitmfg.WithScale(req.Scale))
	if err != nil {
		return err
	}
	pipe := splitmfg.New(req.Options(extra...)...)
	res, err := pipe.Protect(ctx, design)
	if err != nil {
		return err
	}
	sec, err := pipe.Evaluate(ctx, res.ProtectedLayout())
	if err != nil {
		return err
	}

	rep := res.Report()
	if *jsonOut {
		for _, v := range []interface{}{rep, sec} {
			b, err := splitmfg.MarshalReport(v)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, string(b))
		}
	} else {
		fmt.Fprintf(stdout, "design        %s (%v)\n", design.Name(), design.Stats())
		fmt.Fprintf(stdout, "swaps         %d (erroneous-netlist OER %.3f)\n", rep.Swaps, rep.ErroneousOER)
		fmt.Fprintf(stdout, "baseline PPA  area %.1fum2 power %.1fuW delay %.1fps\n",
			rep.BasePPA.AreaUM2, rep.BasePPA.PowerUW, rep.BasePPA.DelayPS)
		fmt.Fprintf(stdout, "restored PPA  area %.1fum2 power %.1fuW delay %.1fps\n",
			rep.FinalPPA.AreaUM2, rep.FinalPPA.PowerUW, rep.FinalPPA.DelayPS)
		fmt.Fprintf(stdout, "overheads     area %.1f%%  power %.1f%%  delay %.1f%%  (budget %.0f%%)\n",
			rep.AreaOHPct, rep.PowerOHPct, rep.DelayOHPct, rep.BudgetPercent)
		fmt.Fprintf(stdout, "attack        %s (M3/M4/M5 avg)\n", splitmfg.Headline(*sec))
		for _, ar := range sec.PerAttacker {
			if ar.Scored {
				fmt.Fprintf(stdout, "  %-10s  CCR %5.1f%%  OER %5.1f%%  HD %5.1f%%\n",
					ar.Attacker, ar.CCRPercent, ar.OERPercent, ar.HDPercent)
			} else {
				fmt.Fprintf(stdout, "  %-10s  metrics-only: %v\n", ar.Attacker, ar.Metrics)
			}
		}
	}

	if *out != "" {
		if err := writeFile(stdout, *out, res.WriteDEF); err != nil {
			return err
		}
	}
	if *vout != "" {
		if err := writeFile(stdout, *vout, res.WriteErroneousVerilog); err != nil {
			return err
		}
	}
	return nil
}

func writeFile(stdout io.Writer, path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote         %s\n", path)
	return nil
}
