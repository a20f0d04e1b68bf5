// Command smsplit is the paper's DEF splitting and conversion utility: it
// builds (or re-reads) a layout, splits it after a metal layer, and emits
// the FEOL-only DEF plus the .rt/.out files that routing-centric attack
// tooling consumes.
//
// Usage:
//
//	smsplit -bench c880 -layer 3 -o c880            # c880_feol.def, c880.rt, c880.out
//	smsplit -bench superblue18 -scale 300 -layer 5 -o sb18
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"splitmfg"
	"splitmfg/cmd/internal/cli"
)

func main() { cli.Main("smsplit", run) }

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("smsplit", flag.ContinueOnError)
	name := fs.String("bench", "c880", "benchmark name")
	layer := fs.Int("layer", 3, "split after this metal layer")
	scale := fs.Int("scale", 300, "superblue scale divisor")
	seed := fs.Int64("seed", 1, "seed")
	out := fs.String("o", "", "output prefix (default: benchmark name)")
	verbose := fs.Bool("v", false, "stream per-stage progress to stderr")
	if err := fs.Parse(args); err != nil {
		return cli.ParseError{Err: err}
	}

	prefix := *out
	if prefix == "" {
		prefix = *name
	}
	design, err := splitmfg.LoadBenchmark(*name, splitmfg.WithScale(*scale))
	if err != nil {
		return err
	}
	opts := []splitmfg.Option{splitmfg.WithSeed(*seed)}
	if *verbose {
		opts = append(opts, splitmfg.WithProgress(splitmfg.ProgressLogger(os.Stderr)))
	}
	pipe := splitmfg.New(opts...)
	if err := pipe.Validate(); err != nil {
		return err
	}
	l, err := pipe.Baseline(ctx, design)
	if err != nil {
		return err
	}

	// Validate the split before creating any output file, so a bad layer
	// doesn't leave partial artifacts behind.
	sum, err := l.Split(*layer)
	if err != nil {
		return err
	}

	write := func(path string, f func(io.Writer) error) error {
		fh, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := f(fh); err != nil {
			fh.Close()
			return err
		}
		if err := fh.Close(); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", path)
		return nil
	}
	if err := write(prefix+"_feol.def", func(w io.Writer) error { return l.WriteSplitDEF(w, *layer) }); err != nil {
		return err
	}
	if err := write(prefix+".rt", l.WriteRT); err != nil {
		return err
	}
	if err := write(prefix+".out", func(w io.Writer) error { return l.WriteOut(w, *layer) }); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "split after M%d: %d vpins, %d fragments (%d driver-side, %d open sink-side)\n",
		sum.Layer, sum.VPins, sum.Fragments, sum.DriverFrags, sum.SinkFrags)
	return nil
}
