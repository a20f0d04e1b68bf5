// Command smattack runs the attacks from the attacker's perspective: build
// a layout (original or protected), split it, and report what each
// attacker engine recovers.
//
// Usage:
//
//	smattack -bench c880 -variant original -split 3,4,5
//	smattack -bench c880 -variant proposed -attacker proximity,greedy,random
//	smattack -bench c432 -attacker random -json
//	smattack -bench superblue18 -variant proposed -attacker crouting -split 5
//
// -attacker selects engines from the registry (see -list). Metrics-only
// engines such as crouting print their averaged metrics instead of a CCR
// line (crouting: vpins, avg_list_size_B and match_in_list_B per bounding
// box B — the paper's Table 3 columns).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"splitmfg"
	"splitmfg/cmd/internal/cli"
)

func main() { cli.Main("smattack", run) }

func run(ctx context.Context, args []string, stdout io.Writer) error {
	// Every job flag writes a field of one request; each -variant builds
	// its layout with the request's options.
	req := splitmfg.JobRequest{
		Kind:        splitmfg.JobAttack,
		Benchmark:   "c880",
		Scale:       300,
		Seed:        1,
		SplitLayers: []int{3, 4, 5},
		Attackers:   []string{"proximity"},
	}
	fs := flag.NewFlagSet("smattack", flag.ContinueOnError)
	fs.StringVar(&req.Benchmark, "bench", req.Benchmark, "benchmark name")
	variant := fs.String("variant", "original", "original | proposed | lifted")
	fs.Func("attacker", "comma-separated attacker `engines` (see -list; default proximity)", func(s string) (err error) {
		req.Attackers, err = splitmfg.ParseAttackers(s)
		return err
	})
	list := fs.Bool("list", false, "list the registered attacker engines and exit")
	fs.Func("split", "comma-separated split `layers`, M1..M9 (default 3,4,5)", func(s string) error {
		req.SplitLayers = nil
		for _, part := range strings.Split(s, ",") {
			layer, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return err
			}
			req.SplitLayers = append(req.SplitLayers, layer)
		}
		return nil
	})
	fs.IntVar(&req.Scale, "scale", req.Scale, "superblue scale divisor")
	fs.Int64Var(&req.Seed, "seed", req.Seed, "seed (0 means the default)")
	fs.IntVar(&req.PatternWords, "patterns", 0, "64-pattern words for OER/HD (default 256)")
	jsonOut := fs.Bool("json", false, "emit the security report as JSON")
	verbose := fs.Bool("v", false, "stream per-stage progress to stderr")
	if err := fs.Parse(args); err != nil {
		return cli.ParseError{Err: err}
	}
	if *list {
		fmt.Fprintln(stdout, strings.Join(splitmfg.Attackers(), "\n"))
		return nil
	}
	if err := req.Validate(); err != nil {
		return err
	}

	design, err := splitmfg.LoadBenchmark(req.Benchmark, splitmfg.WithScale(req.Scale))
	if err != nil {
		return err
	}
	var extra []splitmfg.Option
	if *verbose {
		extra = append(extra, splitmfg.WithProgress(splitmfg.ProgressLogger(os.Stderr)))
	}
	pipe := splitmfg.New(req.Options(extra...)...)

	var l *splitmfg.Layout
	switch *variant {
	case "original":
		l, err = pipe.Baseline(ctx, design)
	case "proposed":
		// Attacker's view: the protected layout alone, skipping the
		// baseline build and PPA accounting Protect would also do.
		l, err = pipe.Randomized(ctx, design)
	case "lifted":
		l, err = pipe.NaiveLifted(ctx, design)
	default:
		return fmt.Errorf("unknown variant %q", *variant)
	}
	if err != nil {
		return err
	}

	sec, err := pipe.Evaluate(ctx, l)
	if err != nil {
		return err
	}
	if *jsonOut {
		b, err := splitmfg.MarshalReport(sec)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(b))
		return nil
	}
	fmt.Fprintf(stdout, "%s %s: attackers %v over splits %v\n", req.Benchmark, *variant, req.Attackers, req.SplitLayers)
	if sec.LayersScored > 0 { // metrics-only panels have no headline
		fmt.Fprintln(stdout, splitmfg.Headline(*sec))
	}
	for _, ar := range sec.PerAttacker {
		if ar.Scored {
			fmt.Fprintf(stdout, "  %-10s CCR %5.1f%%  OER %5.1f%%  HD %5.1f%% over %d fragments\n",
				ar.Attacker, ar.CCRPercent, ar.OERPercent, ar.HDPercent, ar.Fragments)
		} else {
			fmt.Fprintf(stdout, "  %-10s metrics-only: %v\n", ar.Attacker, ar.Metrics)
		}
	}
	return nil
}
