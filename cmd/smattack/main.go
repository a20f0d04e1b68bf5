// Command smattack runs the attacks from the attacker's perspective: build
// a layout (original or protected), split it, and report what each
// attacker engine recovers.
//
// Usage:
//
//	smattack -bench c880 -variant original -split 3,4,5
//	smattack -bench c880 -variant proposed -attacker proximity,greedy,ensemble
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
	"os/signal"
	"strconv"
	"strings"

	"splitmfg"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "smattack:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("smattack", flag.ContinueOnError)
	name := fs.String("bench", "c880", "benchmark name")
	variant := fs.String("variant", "original", "original | proposed | lifted")
	attackers := fs.String("attacker", "proximity", "comma-separated attacker engines (see -list)")
	list := fs.Bool("list", false, "list the registered attacker engines and exit")
	splits := fs.String("split", "3,4,5", "comma-separated split layers")
	scale := fs.Int("scale", 300, "superblue scale divisor")
	seed := fs.Int64("seed", 1, "seed")
	words := fs.Int("patterns", 0, "64-pattern words for OER/HD (default 256)")
	jsonOut := fs.Bool("json", false, "emit the security report as JSON")
	verbose := fs.Bool("v", false, "stream per-stage progress to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		fmt.Fprintln(stdout, strings.Join(splitmfg.Attackers(), "\n"))
		return nil
	}

	layers, err := parseLayers(*splits)
	if err != nil {
		return err
	}
	engines, err := splitmfg.ParseAttackers(*attackers)
	if err != nil {
		return err
	}

	design, err := splitmfg.LoadBenchmark(*name, splitmfg.WithScale(*scale))
	if err != nil {
		return err
	}
	opts := []splitmfg.Option{
		splitmfg.WithSeed(*seed),
		splitmfg.WithSplitLayers(layers...),
		splitmfg.WithAttackers(engines...),
		splitmfg.WithPatternWords(*words),
	}
	if *verbose {
		opts = append(opts, splitmfg.WithProgress(splitmfg.ProgressLogger(os.Stderr)))
	}
	pipe := splitmfg.New(opts...)
	if err := pipe.Validate(); err != nil {
		return err
	}

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
	fmt.Fprintf(stdout, "%s %s: attackers %v over splits %v\n", *name, *variant, engines, layers)
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

func parseLayers(s string) ([]int, error) {
	var layers []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -split %q: %v", s, err)
		}
		layers = append(layers, v)
	}
	return layers, nil
}
