package route

// Job is one net of a batched routing request (RouteJobs).
type Job struct {
	ID       int
	Pins     []Pin
	MinLayer int
}

// JobError reports which job of a batch failed. It wraps the same error
// the equivalent RouteNet call would have returned.
type JobError struct {
	Index int // position in the jobs slice
	ID    int // net ID
	Err   error
}

func (e *JobError) Error() string { return e.Err.Error() }
func (e *JobError) Unwrap() error { return e.Err }

// RouteJobs routes the jobs in order on the caller's goroutine, each like
// RouteNet(j.ID, j.Pins, j.MinLayer): under the flat strategy a batch
// ends exactly where that sequence of calls does.
//
// Under the hierarchical strategy (Opt.Strategy, see strategy.go) a
// coarse pass first plans a corridor per multi-pin net, and each job's
// fine search is confined to its corridor. A net whose corridor turns out
// unroutable is counted in HierStats.FlatFallbacks and retried with the
// flat search.
//
// A job RouteNet would reject outright (no pins, or a lift above the top
// layer) fails the batch before anything is planned or routed. Otherwise
// the first job that fails to route ends the batch with its *JobError:
// the jobs before it stay committed, a failed re-route leaves the net's
// old route intact, and a failed fresh net keeps its Failed marker.
func (r *Router) RouteJobs(jobs []Job) error {
	for i, j := range jobs {
		if err := r.checkNet(j.ID, j.Pins, j.MinLayer); err != nil {
			return &JobError{Index: i, ID: j.ID, Err: err}
		}
	}
	var corrs []corridor
	if r.ResolvedStrategy() == StrategyHier && len(jobs) > 0 {
		if r.planner == nil {
			r.planner = newCoarsePlanner(r)
		}
		corrs = r.planner.plan(jobs)
		if r.corridorHook != nil {
			r.corridorHook(corrs)
		}
		// Routed nets keep their corridor past this batch (negotiation
		// re-routes inside it), and the next plan reuses the arena.
		corrs = cloneCorridors(corrs)
	}
	for i, j := range jobs {
		if err := r.route(j.ID, j.Pins, j.MinLayer, corridorOf(corrs, i)); err != nil {
			return &JobError{Index: i, ID: j.ID, Err: err}
		}
	}
	return nil
}
