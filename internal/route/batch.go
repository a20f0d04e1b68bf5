package route

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

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

// errPanicked marks a job whose route panicked on a wave goroutine.
// RouteJobs returns it, wrapped with the panic value and stack, as the
// job's *JobError and commits nothing of that wave.
var errPanicked = errors.New("route: wave job panicked")

// waveTileGCells is the bucket size the wave partition hashes job regions
// into. Conflicts are detected at tile granularity (two jobs sharing a
// tile are serialized into different waves), so the tile must be small
// relative to a typical declared region (>= 2*maxDetour+1 gcells wide) or
// tile-sharing degenerates into a global chain: real ISCAS/superblue
// grids are only 45-160 gcells across.
const waveTileGCells = 8

// RouteJobs routes the jobs in order, with semantics identical to calling
// RouteNet(j.ID, j.Pins, j.MinLayer) for each job sequentially — but, when
// Opt.Parallelism allows (0 = GOMAXPROCS), spatially disjoint nets route
// concurrently:
//
// Each job declares a region — its pin bounding box expanded by
// maxDetour gcells per sink, the bound on how far its searches can read
// or write congestion state, plus any existing route's bounding box. The
// batch is partitioned into deterministic waves such that jobs within a
// wave have pairwise disjoint regions (and any two conflicting jobs keep
// their serial order across waves). A wave's nets route concurrently on
// worker-local scratch against the usage state committed by earlier
// waves, then commit edges and usage in job order; since same-wave nets
// cannot observe each other, the committed state after every wave is
// byte-identical to the serial schedule's.
//
// A search that would expand beyond its declared region (a detour retry,
// or a multi-sink tree drifting unusually far) cannot be proven
// order-independent: the batch then discards all concurrent work, rolls
// back to its starting state, and re-runs entirely serially. The fallback
// — like everything else here — is deterministic, so results never depend
// on the parallelism level. On failure the routed prefix may differ from
// a serial run's (the batch aborts mid-partition); callers must treat any
// error as fatal for the whole design.
//
// A batch whose jobs repeat an ID routes serially (the later job would
// rip up a route committed mid-batch, which the up-front partition cannot
// see); replacing routes that existed before the batch parallelizes fine.
//
// Under the hierarchical strategy (Opt.Strategy, see strategy.go) a
// serial coarse pass first plans a corridor per multi-pin net; declared
// regions become corridor rectangles (plus any old route being replaced)
// and every fine search is confined to its corridor. A net whose
// corridor turns out unroutable falls back to the flat search in the
// serial schedule; in a parallel wave that fallback cannot stay inside
// the declared region, so the batch rolls back and re-runs serially —
// the same protocol escapes use, with the same determinism argument.
//
// A panic while routing a job of a multi-net wave is recovered on the
// wave goroutine that raised it: RouteJobs returns that job's *JobError
// (wrapping the panic value and stack) without committing the wave, so
// a bug in the search cannot take a long-running server down with it.
//
// A job RouteNet would reject outright (no pins, or a lift above the top
// layer) fails the batch before anything is planned or routed.
//
// Opt.OnWave, when set, observes each committed multi-net wave.
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
	// serial is the schedule every batch reduces to, and the escape
	// fallback of the parallel one: each job in order through the serial
	// route path, inside its corridor if it has one.
	serial := func() error {
		for i, j := range jobs {
			if err := r.route(j.ID, j.Pins, j.MinLayer, corridorOf(corrs, i)); err != nil {
				return &JobError{Index: i, ID: j.ID, Err: err}
			}
		}
		return nil
	}
	p := r.Opt.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > len(jobs) {
		p = len(jobs)
	}
	if p <= 1 {
		return serial()
	}
	waves, ok := r.partition(jobs, corrs)
	if !ok {
		// Degenerate partition (every wave a single job): the batch is a
		// serial chain, skip the worker machinery.
		return serial()
	}

	// Wave workers are allocated per batch and dropped after it: their
	// scratch is sized to the full grid (~24 bytes/node each), so a router
	// between batches holds only its serial worker.
	workers := make([]*worker, 0, p)
	rns := make([]*RoutedNet, len(jobs))
	errs := make([]error, len(jobs))
	// committed tracks (job index, replaced route) for rollback: when any
	// job escapes its declared region the whole batch restarts serially.
	type commitRec struct {
		id  int
		old *RoutedNet
	}
	var committed []commitRec
	rollback := func() {
		// Reverse order, so a net committed twice in one batch unwinds to
		// its pre-batch route.
		for k := len(committed) - 1; k >= 0; k-- {
			c := committed[k]
			r.ripUp(r.nets[c.id])
			if c.old != nil {
				// The old route's edges were snapshotted before the commit
				// that replaced it; restore them and their usage.
				r.nets[c.id] = c.old
				for _, e := range c.old.Edges {
					r.addUsage(e, 1, c.id)
				}
			} else {
				delete(r.nets, c.id)
			}
		}
	}

	routeOne := func(w *worker, ji int, bound *region) (*RoutedNet, error) {
		j := jobs[ji]
		return w.routeNet(j.ID, j.Pins, j.MinLayer, r.nets[j.ID], corridorOf(corrs, ji), bound)
	}

	// routeRecovered is routeOne on a wave goroutine, where a panic
	// would take the whole process down (no caller's recover can reach
	// it): the panic becomes the job's error, carrying its value and
	// stack, and false tells the goroutine to stop using the worker.
	routeRecovered := func(w *worker, ji int, bound *region) (ok bool) {
		defer func() {
			if p := recover(); p != nil {
				errs[ji] = fmt.Errorf("%w: net %d: %v\n%s", errPanicked, jobs[ji].ID, p, debug.Stack())
				ok = false
			}
		}()
		rns[ji], errs[ji] = routeOne(w, ji, bound)
		return true
	}

	for wi, wv := range waves {
		start := time.Now() //smlint:wallclock wave wall-clock for the OnWave progress callback; never reaches routed results
		if len(wv.jobs) == 1 {
			ji := wv.jobs[0]
			rns[ji], errs[ji] = routeOne(r.serial, ji, &wv.regions[0])
		} else {
			pw := p
			if pw > len(wv.jobs) {
				pw = len(wv.jobs)
			}
			//smlint:bounded grows the reusable worker pool to pw <= Parallelism, one append per iteration
			for len(workers) < pw {
				workers = append(workers, newWorker(r))
			}
			var next int32
			var wg sync.WaitGroup
			for k := 0; k < pw; k++ {
				wg.Add(1)
				go func(w *worker) {
					defer wg.Done()
					//smlint:bounded work-stealing over a fixed job list: every iteration claims a fresh index and returns past len(wv.jobs)
					for {
						t := int(atomic.AddInt32(&next, 1)) - 1
						if t >= len(wv.jobs) {
							return
						}
						ji := wv.jobs[t]
						if !routeRecovered(w, ji, &wv.regions[t]) {
							return // drop the worker: the panic may have left its scratch half-written
						}
					}
				}(workers[k])
			}
			wg.Wait()
			// A panicked job fails the batch before anything of its wave
			// commits; the lowest job index names it, so the error does
			// not depend on goroutine timing.
			for _, ji := range wv.jobs {
				if errors.Is(errs[ji], errPanicked) {
					return &JobError{Index: ji, ID: jobs[ji].ID, Err: errs[ji]}
				}
			}
		}
		// Any escape — or corridor failure, whose flat retry cannot stay
		// inside the declared region — poisons every concurrent result:
		// roll back and route the whole batch serially. (Escape is
		// deterministic: until one occurs, every routed job saw exactly
		// the serial schedule's state, so a batch escapes in parallel iff
		// its serial schedule would trigger a detour retry, region drift,
		// or corridor fallback.)
		for _, ji := range wv.jobs {
			if errors.Is(errs[ji], errEscaped) || errors.Is(errs[ji], errCorridor) {
				rollback()
				if corrs != nil {
					r.hierStats.BatchEscapes++
				}
				return serial()
			}
		}
		// Commit in job order. Same-wave jobs cannot interact, so this
		// yields the serial schedule's state exactly.
		for _, ji := range wv.jobs {
			j := jobs[ji]
			old := r.nets[j.ID]
			if errs[ji] != nil {
				if old == nil {
					r.nets[j.ID] = rns[ji]
				}
				return &JobError{Index: ji, ID: j.ID, Err: errs[ji]}
			}
			// Snapshot the old route before commit rips its edges up, so a
			// later escape can restore it, corridor included.
			var snap *RoutedNet
			if old != nil {
				s := *old
				snap = &s
			}
			r.commit(rns[ji], old)
			committed = append(committed, commitRec{id: j.ID, old: snap})
		}
		if r.Opt.OnWave != nil && len(wv.jobs) > 1 {
			r.Opt.OnWave(wi+1, len(waves), len(wv.jobs), time.Since(start))
		}
	}
	return nil
}

// wave is one parallel step of a batch: job indices in job order plus each
// job's declared region (parallel slices).
type wave struct {
	jobs    []int
	regions []region
}

// partition assigns every job a wave level such that (a) two jobs whose
// declared regions overlap always land in different waves with the
// earlier job first, and (b) jobs within a wave are pairwise disjoint.
// Levels come from per-tile chains: each job depends on the last previous
// job sharing any of its tiles — a superset of true region overlaps
// (overlapping regions share at least one tile), computed in linear time.
// corrs, non-nil under the hierarchical strategy, substitutes corridor
// rectangles for detour-widened bounding boxes (see declaredRegion).
// ok is false when the partition is fully serial (no wave holds two jobs).
func (r *Router) partition(jobs []Job, corrs []corridor) ([]wave, bool) {
	// Duplicate IDs inside one batch invalidate the up-front regions: the
	// later job would rip up whatever route the earlier one commits
	// mid-batch, which the pre-batch state cannot predict. No pipeline
	// caller does this; route such a batch serially.
	ids := make(map[int]bool, len(jobs))
	for _, j := range jobs {
		if ids[j.ID] {
			return nil, false
		}
		ids[j.ID] = true
	}
	regions := make([]region, len(jobs))
	levels := make([]int, len(jobs))
	numLevels := 0
	last := map[[2]int]int{} // tile -> last job index covering it
	for i, j := range jobs {
		reg, interacts := r.declaredRegion(j, corridorOf(corrs, i))
		regions[i] = reg
		lvl := 0
		if interacts {
			for ty := reg.loY / waveTileGCells; ty <= reg.hiY/waveTileGCells; ty++ {
				for tx := reg.loX / waveTileGCells; tx <= reg.hiX/waveTileGCells; tx++ {
					if p, ok := last[[2]int{tx, ty}]; ok && levels[p]+1 > lvl {
						lvl = levels[p] + 1
					}
				}
			}
			for ty := reg.loY / waveTileGCells; ty <= reg.hiY/waveTileGCells; ty++ {
				for tx := reg.loX / waveTileGCells; tx <= reg.hiX/waveTileGCells; tx++ {
					last[[2]int{tx, ty}] = i
				}
			}
		}
		levels[i] = lvl
		if lvl+1 > numLevels {
			numLevels = lvl + 1
		}
	}
	if numLevels >= len(jobs) {
		return nil, false
	}
	waves := make([]wave, numLevels)
	for i, lvl := range levels {
		waves[lvl].jobs = append(waves[lvl].jobs, i)
		waves[lvl].regions = append(waves[lvl].regions, regions[i])
	}
	return waves, true
}

// declaredRegion is the spatial bound job searches must stay within when
// routed concurrently. With a corridor c it is the corridor's rectangle,
// which already contains every pin: corridor-confined searches cannot
// read or write outside it, and a corridor failure escapes to the serial
// schedule instead of retrying wider. Without one it is the bounding box
// of the pins widened by maxDetour gcells per sink (each sink's search
// can expand the tree's bounding box by one first-attempt detour). Either
// way it grows to cover any existing route being replaced, whose rip-up
// decrements usage across the old edges.
//
// interacts is false only for jobs that neither read nor write congestion
// state: single-pin jobs with no existing route to rip up. A single-pin
// job replacing a routed net interacts — its commit decrements usage
// across the old route's region — but needs no detour margin, since it
// performs no searches.
func (r *Router) declaredRegion(j Job, c *corridor) (region, bool) {
	g := r.Grid
	var reg region
	interacts := true
	if c != nil {
		reg = c.reg
	} else {
		n0 := g.NodeOf(j.Pins[0].Pt, j.Pins[0].Layer)
		reg = region{loX: n0.X, loY: n0.Y, hiX: n0.X, hiY: n0.Y}
		for _, p := range j.Pins[1:] {
			n := g.NodeOf(p.Pt, p.Layer)
			reg.grow(n.X, n.Y)
		}
		reg = reg.widen(maxDetour*(len(j.Pins)-1), g)
		interacts = len(j.Pins) > 1
	}
	if old := r.nets[j.ID]; old != nil && len(old.Edges) > 0 {
		interacts = true
		for _, e := range old.Edges {
			a, b := g.Ends(e)
			reg.grow(a.X, a.Y)
			reg.grow(b.X, b.Y)
		}
	}
	return reg, interacts
}
