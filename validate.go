package splitmfg

import (
	"fmt"

	"splitmfg/internal/attack/engine"
	defengine "splitmfg/internal/defense/engine"
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
	return p.cfg.validate()
}

func (c *pipelineConfig) validate() error {
	if c.liftLayer < 0 {
		return &OptionError{"WithLiftLayer", fmt.Sprintf("lift layer %d is negative", c.liftLayer)}
	}
	if c.utilPercent < 0 || c.utilPercent > 100 {
		return &OptionError{"WithUtilization", fmt.Sprintf("utilization %d%% outside [0, 100]", c.utilPercent)}
	}
	if c.budget < 0 {
		return &OptionError{"WithPPABudget", fmt.Sprintf("PPA budget %g%% is negative", c.budget)}
	}
	if c.targetOER < 0 || c.targetOER > 1 {
		return &OptionError{"WithTargetOER", fmt.Sprintf("target OER %g outside [0, 1]", c.targetOER)}
	}
	if c.patternWords < 0 {
		return &OptionError{"WithPatternWords", fmt.Sprintf("pattern words %d is negative", c.patternWords)}
	}
	for _, layer := range c.splitLayers {
		if layer < 1 {
			return &OptionError{"WithSplitLayers", fmt.Sprintf("split layer %d below M1", layer)}
		}
	}
	if c.fraction < 0 || c.fraction > 1 {
		return &OptionError{"WithFraction", fmt.Sprintf("fraction %g outside (0, 1]", c.fraction)}
	}
	if c.replicates < 0 {
		return &OptionError{"WithReplicates", fmt.Sprintf("replicate count %d is negative", c.replicates)}
	}
	if c.maxAttempts < 0 {
		return &OptionError{"WithMaxAttempts", fmt.Sprintf("attempt cap %d is negative", c.maxAttempts)}
	}
	if c.parallelism < 0 {
		return &OptionError{"WithParallelism", fmt.Sprintf("parallelism %d is negative", c.parallelism)}
	}
	if _, err := route.ParseStrategy(c.routeStrat); err != nil {
		return &OptionError{"WithRouteStrategy", err.Error()}
	}
	// An empty list means "the default engine", so only non-empty lists
	// resolve; resolution rejects blank and unknown names, naming the
	// registry contents in the reason.
	if len(c.attackers) > 0 {
		if _, err := engine.Resolve(c.attackers); err != nil {
			return &OptionError{"WithAttackers", err.Error()}
		}
	}
	if len(c.defenses) > 0 {
		if _, err := defengine.Resolve(c.defenses); err != nil {
			return &OptionError{"WithDefenses", err.Error()}
		}
	}
	return nil
}
