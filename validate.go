package splitmfg

import (
	"fmt"

	"splitmfg/internal/attack/engine"
	"splitmfg/internal/cell"
	defengine "splitmfg/internal/defense/engine"
	"splitmfg/internal/place"
	"splitmfg/internal/route"
)

// OptionError reports a Pipeline option (or server job-request field) whose
// value is outside its valid range. Entry points that validate — Validate,
// JobRequest.Validate, JobRequest.Run — return it before any heavy work
// starts, so front-ends can map it to a user-facing 400-class failure with
// errors.As.
type OptionError struct {
	Option string // the With* option (or request field) that carried the value
	Reason string // what about the value is out of range
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("splitmfg: invalid %s: %s", e.Option, e.Reason)
}

// Validate checks every configured option against its valid range and the
// attacker/defense registries, returning a typed *OptionError for the first
// violation. New never fails — zero values mean "resolve a default later" —
// so callers that accept untrusted settings (the evaluation server, the
// CLIs) call Validate once after construction to fail fast with a precise
// message instead of deep inside the flow.
func (p *Pipeline) Validate() error {
	c := &p.cfg
	if c.liftLayer < 0 {
		return &OptionError{"WithLiftLayer", fmt.Sprintf("lift layer %d is negative", c.liftLayer)}
	}
	// Zero resolves per design; any other layer needs a correction cell
	// with pins on it, and the cell library is the one list of those.
	if c.liftLayer != 0 {
		if _, err := p.lib.Correction(c.liftLayer); err != nil {
			return &OptionError{"WithLiftLayer", err.Error()}
		}
	}
	if c.utilPercent < 0 || c.utilPercent > place.MaxUtilPercent {
		return &OptionError{"WithUtilization", fmt.Sprintf("utilization %d%% outside [0, %d]", c.utilPercent, place.MaxUtilPercent)}
	}
	if c.budget < 0 {
		return &OptionError{"WithPPABudget", fmt.Sprintf("PPA budget %g%% is negative", c.budget)}
	}
	if c.TargetOER < 0 || c.TargetOER > 1 {
		return &OptionError{"WithTargetOER", fmt.Sprintf("target OER %g outside [0, 1]", c.TargetOER)}
	}
	if c.PatternWords < 0 {
		return &OptionError{"WithPatternWords", fmt.Sprintf("pattern words %d is negative", c.PatternWords)}
	}
	for _, layer := range c.SplitLayers {
		if layer < 1 || layer > cell.NumLayers-1 {
			return &OptionError{"WithSplitLayers", fmt.Sprintf("split layer %d outside M1..M%d", layer, cell.NumLayers-1)}
		}
	}
	if c.Fraction < 0 || c.Fraction > 1 {
		return &OptionError{"WithFraction", fmt.Sprintf("fraction %g outside (0, 1]", c.Fraction)}
	}
	if c.Replicates < 0 {
		return &OptionError{"WithReplicates", fmt.Sprintf("replicate count %d is negative", c.Replicates)}
	}
	if c.MaxAttempts < 0 {
		return &OptionError{"WithMaxAttempts", fmt.Sprintf("attempt cap %d is negative", c.MaxAttempts)}
	}
	if c.Parallelism < 0 {
		return &OptionError{"WithParallelism", fmt.Sprintf("parallelism %d is negative", c.Parallelism)}
	}
	if _, err := route.ParseStrategy(string(c.RouteStrategy)); err != nil {
		return &OptionError{"WithRouteStrategy", err.Error()}
	}
	// An empty list means "the default engine", so only non-empty lists
	// resolve; resolution rejects blank and unknown names, naming the
	// registry contents in the reason.
	if len(c.Attackers) > 0 {
		if _, err := engine.Resolve(c.Attackers); err != nil {
			return &OptionError{"WithAttackers", err.Error()}
		}
	}
	if len(c.Defenses) > 0 {
		if _, err := defengine.Resolve(c.Defenses); err != nil {
			return &OptionError{"WithDefenses", err.Error()}
		}
	}
	return nil
}
