package flow

import (
	"context"
	"time"

	defengine "splitmfg/internal/defense/engine"

	"splitmfg/internal/cell"
	"splitmfg/internal/timing"
)

// MatrixRow is one defense's full outcome: its PPA cost relative to the
// unprotected baseline plus the attacker panel's results. The cells of
// the paper's Tables 4/5 cross product are Security.PerAttacker (one
// AttackerResult per requested attacker, in request order); Security also
// carries the full per-layer detail.
type MatrixRow struct {
	Defense  string
	Swaps    int // connectivity exchanges the scheme performed
	PPA      timing.PPA
	AreaOH   float64 // percent vs the unprotected baseline
	PowerOH  float64
	DelayOH  float64
	Metrics  map[string]float64 // scheme-specific extras
	Security SecurityResult
	Elapsed  time.Duration
}

// MatrixResult is the defense×attacker cross matrix over one design.
type MatrixResult struct {
	BasePPA timing.PPA  // the unprotected baseline's PPA
	Rows    []MatrixRow // one per requested defense, in request order
}

// EvaluateMatrix builds every requested defense on the benchmark and runs
// every requested attacker against it at each split layer — the full
// cross product behind the paper's Tables 4 and 5. Rows are defenses,
// columns are attackers, and each cell averages CCR/OER/HD over the split
// layers; each row also carries the defense's PPA overhead against the
// unprotected baseline.
//
// It is the one-benchmark, one-replicate case of EvaluateSuite and runs
// on the suite's scheduler: the baseline and the defense rows build
// concurrently, no row waits on the baseline, and a defense name
// requested twice is computed once (the second row is a cache hit). Its
// cache lives only for the call and never touches a disk store, so
// opt.Replicates and opt.CacheDir do not apply. Progress events are the
// suite's.
//
// Every (defense, attacker, layer) triple derives its own independent RNG
// stream from the master seed (FNV label mixing + splitmix64), and rows are
// merged in request order, so the result — and its serialized MatrixReport
// — is byte-identical at every parallelism level.
func EvaluateMatrix(ctx context.Context, lib *cell.Library, b Bench, opt Options) (MatrixResult, error) {
	opt = opt.withDefaults()
	opt.Replicates, opt.CacheDir = 1, ""
	base, rows, _, err := evaluateRows(ctx, lib, []Bench{b}, opt)
	if err != nil {
		return MatrixResult{}, err
	}
	return MatrixResult{BasePPA: base[0], Rows: rows}, nil
}

// evaluateDefense computes one matrix row: build the defense's layout with
// a name-derived seed, analyze its PPA, then run the full attacker panel
// over the split layers with an independent name-derived evaluation seed.
// The build runs on the caller's goroutine; opt.Parallelism bounds the
// concurrent layer attacks. The caller fills in the overheads against its
// baseline.
func evaluateDefense(ctx context.Context, lib *cell.Library, b Bench, name string, opt Options) (MatrixRow, error) {
	start := time.Now()
	row := MatrixRow{Defense: name}
	def, _ := defengine.Lookup(name) // validated up front in evaluateRows
	// Every defense receives the same scope seed (the defengine.Options
	// contract, mirroring attack engines): each scheme derives its own
	// streams by label, and the shared "randomize" label is what keeps
	// naive-lifted protecting exactly randomize-correction's sink set.
	prot, err := def.Protect(ctx, b.Netlist, lib, defengine.Options{
		Seed:          defengine.DeriveSeed(opt.Seed, "defense"),
		LiftLayer:     b.LiftLayer,
		UtilPercent:   b.UtilPercent,
		TargetOER:     opt.TargetOER,
		Fraction:      opt.Fraction,
		RouteStrategy: opt.RouteStrategy,
	})
	if err != nil {
		return row, err
	}
	row.Swaps = prot.Swaps
	row.Metrics = prot.Metrics

	// Lifting schemes are scored on the restored design against the
	// original netlist (the erroneous FEOL netlist is not what the chip
	// computes after BEOL restoration); flat schemes on the design itself.
	if prot.Corr != nil {
		row.PPA, err = timing.AnalyzeRestored(prot.Design, b.Netlist, prot.Design.Masters, lib)
	} else {
		row.PPA, err = timing.AnalyzeDesign(prot.Design, lib)
	}
	if err != nil {
		return row, err
	}

	eopt := opt
	eopt.Seed = defengine.DeriveSeed(opt.Seed, "matrix/"+name)
	sec, err := EvaluateSecurity(ctx, prot.Design, b.Netlist, prot.ProtectedPins, eopt)
	if err != nil {
		return row, err
	}
	row.Security = sec
	row.Elapsed = time.Since(start)
	return row, nil
}
