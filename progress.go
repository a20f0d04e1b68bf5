package splitmfg

import (
	"fmt"
	"io"

	"splitmfg/internal/flow"
)

// Stage identifies a phase of the protection flow or the attack loop.
// Protect passes through StageRandomize, StagePlace, StageLift, StageRoute,
// StageRestore, StageVerify, and StagePPA once per escalation attempt
// (plus StagePlace/StageRoute with Detail "baseline" for the reference
// layout); Evaluate emits one StageAttack event per split layer; Suite
// emits one StageSuiteBaseline event per benchmark and one StageSuiteCell
// event per (benchmark, defense, replicate) cell.
type Stage = flow.Stage

// Stages, in the order the pipeline passes through them.
const (
	StageRandomize = flow.StageRandomize
	StagePlace     = flow.StagePlace
	StageLift      = flow.StageLift
	StageRoute     = flow.StageRoute
	StageRestore   = flow.StageRestore
	StageVerify    = flow.StageVerify
	StagePPA       = flow.StagePPA
	StageAttack    = flow.StageAttack

	// StageRouteWave reports one committed multi-net wave of a parallel
	// routing batch (WithParallelism; Detail carries
	// "wave i/n: k nets"). Single-net waves and serial routing emit no
	// wave events.
	StageRouteWave = flow.StageRouteWave

	// Suite-level stages: a benchmark's shared unprotected baseline was
	// built (Bench set), or a (benchmark, defense, replicate) cell
	// completed (Bench, Replicate, and Detail = defense name set).
	StageSuiteBaseline = flow.StageSuiteBaseline
	StageSuiteCell     = flow.StageSuiteCell
)

// ProgressEvent is one completed stage transition, carrying the stage's
// wall-clock duration. For StageAttack events Layer is the split layer;
// for Protect stages Attempt is the 1-based escalation attempt (0 marks
// work on the baseline layout); for suite stages Bench is the benchmark
// and Replicate the 0-based seed replicate.
type ProgressEvent = flow.Event

// ProgressFunc receives stage-completion events. Calls are serialized even
// during parallel evaluation, so implementations need no locking.
type ProgressFunc = flow.ProgressFunc

// ProgressLogger returns a ProgressFunc that writes one line per event to
// w — a ready-made hook for CLI verbose modes.
func ProgressLogger(w io.Writer) ProgressFunc {
	return func(ev ProgressEvent) {
		where := ""
		switch {
		case ev.Stage == StageAttack:
			where = fmt.Sprintf(" M%d", ev.Layer)
		case ev.Stage == StageSuiteBaseline:
			where = " " + ev.Bench
		case ev.Stage == StageSuiteCell:
			where = fmt.Sprintf(" %s r%d", ev.Bench, ev.Replicate)
		case ev.Attempt > 0:
			where = fmt.Sprintf(" #%d", ev.Attempt)
		}
		detail := ""
		if ev.Detail != "" {
			detail = " (" + ev.Detail + ")"
		}
		fmt.Fprintf(w, "[%8.2fms] %-9s%s%s\n",
			float64(ev.Elapsed.Microseconds())/1000, ev.Stage, where, detail)
	}
}
