package route

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"splitmfg/internal/geom"
)

func TestParseStrategy(t *testing.T) {
	cases := []struct {
		in   string
		want Strategy
		err  bool
	}{
		{"", StrategyAuto, false},
		{"auto", StrategyAuto, false},
		{"flat", StrategyFlat, false},
		{"hier", StrategyHier, false},
		{"HIER", "", true},
		{"fast", "", true},
	}
	for _, c := range cases {
		got, err := ParseStrategy(c.in)
		if c.err != (err != nil) || got != c.want {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v, err=%v", c.in, got, err, c.want, c.err)
		}
	}
}

// TestResolvedStrategyAuto: auto must resolve flat below the die-area
// threshold (every ISCAS'85 benchmark, so existing goldens stay
// byte-identical) and hier above it (superblue-class dies).
func TestResolvedStrategyAuto(t *testing.T) {
	mk := func(wNM, hNM int, s Strategy) *Router {
		die := geom.Rect{Lo: geom.Point{}, Hi: geom.Point{X: wNM, Y: hNM}}
		return NewRouter(NewGrid(die, 0, 10), Options{Strategy: s})
	}
	// c7552 at 70% utilization: the largest ISCAS die.
	if got := mk(69350, 71400, StrategyAuto).ResolvedStrategy(); got != StrategyFlat {
		t.Fatalf("auto on c7552-sized die resolved %v, want flat", got)
	}
	// superblue18 at SUPERBLUE_SCALE=200: the smallest CI superblue die.
	if got := mk(75240, 77000, StrategyAuto).ResolvedStrategy(); got != StrategyHier {
		t.Fatalf("auto on superblue18/200-sized die resolved %v, want hier", got)
	}
	// Explicit options win regardless of area.
	if got := mk(75240, 77000, StrategyFlat).ResolvedStrategy(); got != StrategyFlat {
		t.Fatalf("explicit flat resolved %v", got)
	}
	if got := mk(69350, 71400, StrategyHier).ResolvedStrategy(); got != StrategyHier {
		t.Fatalf("explicit hier resolved %v", got)
	}
}

// TestRouteJobsHierSerialParallelIdentical mirrors
// TestRouteJobsSerialParallelIdentical for the hierarchical strategy:
// corridor-confined parallel refinement must produce byte-identical
// router state to the serial schedule, with real multi-net waves and
// corridors actually in play.
func TestRouteJobsHierSerialParallelIdentical(t *testing.T) {
	g := bigGrid()
	jobs := scatteredJobs(400, g, 7)

	serial := NewRouter(g, Options{Parallelism: 1, Strategy: StrategyHier})
	if err := serial.RouteJobs(jobs); err != nil {
		t.Fatal(err)
	}
	if hs := serial.Hier(); hs.CorridorNets == 0 || hs.TileW == 0 {
		t.Fatalf("hier serial run planned no corridors: %+v", hs)
	}

	maxWave := 0
	par := NewRouter(g, Options{Parallelism: 8, Strategy: StrategyHier, OnWave: func(wave, waves, nets int, _ time.Duration) {
		if nets > maxWave {
			maxWave = nets
		}
	}})
	if err := par.RouteJobs(jobs); err != nil {
		t.Fatal(err)
	}
	if maxWave < 2 {
		t.Fatalf("no wave routed more than one net (max %d): partition degenerated to serial", maxWave)
	}
	stateEqual(t, serial, par)
	if err := par.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRouteJobsHierRerouteInBatch: batched re-routing of existing nets
// (old edges masked through the overlay, rip-up on commit) must stay
// byte-identical across parallelism levels under hier too.
func TestRouteJobsHierRerouteInBatch(t *testing.T) {
	g := bigGrid()
	pre := scatteredJobs(60, g, 21)
	jobs := scatteredJobs(60, g, 22) // same IDs 0..59, different pins

	build := func(parallelism int) *Router {
		r := NewRouter(g, Options{Parallelism: parallelism, Strategy: StrategyHier})
		for _, j := range pre {
			if err := r.RouteNet(j.ID, j.Pins, j.MinLayer); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.RouteJobs(jobs); err != nil {
			t.Fatal(err)
		}
		return r
	}
	stateEqual(t, build(1), build(8))
}

// TestHierCorridorFallback: a corridor that cannot be refined must fall
// back to the flat search in the serial schedule and force the parallel
// schedule through rollback into that same serial fallback — ending in
// identical state with the net routed. With soft capacities the coarse
// pass never produces an unroutable corridor organically, so the test
// injects one through the Router's corridorHook: the victim net's
// corridor is truncated to a single tile, which cannot contain a path
// between its distant pins.
func TestHierCorridorFallback(t *testing.T) {
	g := bigGrid()
	jobs := scatteredJobs(60, g, 9)
	victim := -1
	for i, j := range jobs {
		if len(j.Pins) == 2 && j.MinLayer == 1 &&
			absInt(j.Pins[0].Pt.X-j.Pins[1].Pt.X)/g.GCell > 3*waveTileGCells {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no suitable victim net in workload")
	}
	cripple := func(corrs []corridor) {
		if corrs[victim].n == 0 {
			t.Fatalf("victim %d has no corridor", victim)
		}
		corrs[victim].tiles = corrs[victim].tiles[:1]
	}

	serial := NewRouter(g, Options{Parallelism: 1, Strategy: StrategyHier})
	serial.corridorHook = cripple
	if err := serial.RouteJobs(jobs); err != nil {
		t.Fatal(err)
	}
	if fb := serial.Hier().FlatFallbacks; fb == 0 {
		t.Fatal("serial hier run recorded no flat fallback")
	}
	if rn := serial.Net(jobs[victim].ID); rn == nil || rn.Failed || len(rn.Edges) == 0 {
		t.Fatalf("victim net not routed by fallback: %+v", serial.Net(jobs[victim].ID))
	}

	par := NewRouter(g, Options{Parallelism: 8, Strategy: StrategyHier})
	par.corridorHook = cripple
	if err := par.RouteJobs(jobs); err != nil {
		t.Fatal(err)
	}
	if hs := par.Hier(); hs.BatchEscapes == 0 || hs.FlatFallbacks == 0 {
		t.Fatalf("parallel hier run did not escape to the serial fallback: %+v", hs)
	}
	stateEqual(t, serial, par)
	if err := par.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestHierUnroutableMatchesSerial: a genuinely unroutable net (M10 lift,
// horizontally separated pins) fails its corridor, falls back flat, and
// fails there too — identically in serial and parallel schedules.
func TestHierUnroutableMatchesSerial(t *testing.T) {
	g := bigGrid()
	jobs := scatteredJobs(50, g, 9)
	bad := Job{ID: 999, Pins: []Pin{
		{Pt: geom.Point{X: 100 * g.GCell, Y: 200 * g.GCell}, Layer: 1},
		{Pt: geom.Point{X: 130 * g.GCell, Y: 200 * g.GCell}, Layer: 1},
	}, MinLayer: 10}
	jobs = append(jobs[:25:25], append([]Job{bad}, jobs[25:]...)...)

	serial := NewRouter(g, Options{Parallelism: 1, Strategy: StrategyHier})
	serialErr := serial.RouteJobs(jobs)
	if serialErr == nil {
		t.Fatal("serial hier batch with an unroutable net did not fail")
	}
	par := NewRouter(g, Options{Parallelism: 8, Strategy: StrategyHier})
	parErr := par.RouteJobs(jobs)
	if parErr == nil {
		t.Fatal("parallel hier batch with an unroutable net did not fail")
	}
	if serialErr.Error() != parErr.Error() {
		t.Fatalf("error differs:\nserial:   %v\nparallel: %v", serialErr, parErr)
	}
	stateEqual(t, serial, par)
}

// TestCorridorCoversPins: every corridor must contain the tiles of all
// of its net's pins, and its region must cover the whole tile set —
// otherwise refinement could be cut off from a pin it has to reach.
func TestCorridorCoversPins(t *testing.T) {
	g := bigGrid()
	jobs := scatteredJobs(200, g, 13)
	r := NewRouter(g, Options{Strategy: StrategyHier})
	pl := newCoarsePlanner(r)
	corrs := pl.plan(jobs)
	if len(corrs) != len(jobs) {
		t.Fatalf("corridor count %d != job count %d", len(corrs), len(jobs))
	}
	for i, j := range jobs {
		if len(j.Pins) <= 1 {
			if corrs[i].n != 0 {
				t.Fatalf("single-pin job %d got a corridor", i)
			}
			continue
		}
		member := map[int32]bool{}
		for _, ti := range corrs[i].tiles {
			member[ti] = true
			tx, ty := int(ti)%pl.tw, int(ti)/pl.tw
			reg := corrs[i].reg
			if tx*waveTileGCells > reg.hiX || ty*waveTileGCells > reg.hiY ||
				tx*waveTileGCells+waveTileGCells-1 < reg.loX || ty*waveTileGCells+waveTileGCells-1 < reg.loY {
				t.Fatalf("job %d corridor tile (%d,%d) outside its region %+v", i, tx, ty, reg)
			}
		}
		for pi, p := range j.Pins {
			n := g.NodeOf(p.Pt, p.Layer)
			if !member[pl.tileOf(n.X, n.Y)] {
				t.Fatalf("job %d pin %d tile not in corridor", i, pi)
			}
		}
	}
}

// TestUsageOverflowPanicContext: the int16 saturation guard must name
// the net, direction, layer, and gcell so a full-scale failure is
// diagnosable from the panic message alone.
func TestUsageOverflowPanicContext(t *testing.T) {
	r := NewRouter(testGrid(), Options{})
	e := Edge{A: r.Grid.Index(Node{X: 5, Y: 7, Z: 3}), B: r.Grid.Index(Node{X: 6, Y: 7, Z: 3})}
	r.usageH[e.A] = 32767
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("overflowing addUsage did not panic")
		}
		msg, ok := rec.(string)
		if !ok {
			t.Fatalf("panic value %T, want string", rec)
		}
		for _, want := range []string{"net 42", "horizontal", "M3", "(5,7)", "32768", "overflows int16"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("panic message %q missing %q", msg, want)
			}
		}
	}()
	r.addUsage(e, 1, 42)
}

// TestHierFailedFreshRouteKeepsMarker: a fresh hier route that fails
// (not via corridor exhaustion) must leave the same Failed marker the
// flat path leaves — no edges, no usage.
func TestHierFailedFreshRouteKeepsMarker(t *testing.T) {
	g := bigGrid()
	r := NewRouter(g, Options{Parallelism: 1, Strategy: StrategyHier})
	bad := Job{ID: 7, Pins: []Pin{
		{Pt: geom.Point{X: 100 * g.GCell, Y: 200 * g.GCell}, Layer: 1},
		{Pt: geom.Point{X: 130 * g.GCell, Y: 200 * g.GCell}, Layer: 1},
	}, MinLayer: 10}
	if err := r.RouteJobs([]Job{bad}); err == nil {
		t.Fatal("unroutable job succeeded")
	}
	if rn := r.Net(7); rn == nil || !rn.Failed || len(rn.Edges) != 0 {
		t.Fatalf("failed net state: %+v", r.Net(7))
	}
	if r.MaxUsage() != 0 {
		t.Fatalf("failed net left usage behind: %d", r.MaxUsage())
	}
	var je *JobError
	if err := r.RouteJobs([]Job{bad}); !errors.As(err, &je) {
		t.Fatalf("re-route of failed net: %v", err)
	}
}

// TestRouteJobsWavePanicBecomesJobError: a panic on a wave goroutine
// must come back as that job's *JobError, with the panic value and
// stack, instead of killing the process, and nothing of its wave may
// commit. The corridor hook writes an out-of-range tile into one
// corridor of the first wave, which routes several nets, so setCorridor
// indexes past its tile mask on a wave goroutine.
func TestRouteJobsWavePanicBecomesJobError(t *testing.T) {
	g := bigGrid()
	jobs := scatteredJobs(60, g, 9)
	r := NewRouter(g, Options{Parallelism: 4, Strategy: StrategyHier})
	victim := -1
	var firstWave []int
	r.corridorHook = func(corrs []corridor) {
		waves, ok := r.partition(jobs, corrs)
		if !ok || len(waves[0].jobs) < 4 {
			t.Fatalf("first wave does not route several nets: %v", waves)
		}
		firstWave = waves[0].jobs
		victim = firstWave[len(firstWave)/2]
		if corrs[victim].n == 0 {
			t.Fatalf("job %d has no corridor", victim)
		}
		corrs[victim].tiles[0] = math.MaxInt32
	}
	err := r.RouteJobs(jobs)
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("RouteJobs err = %v, want *JobError", err)
	}
	if je.Index != victim || je.ID != jobs[victim].ID {
		t.Fatalf("JobError names job %d (net %d), want job %d (net %d)", je.Index, je.ID, victim, jobs[victim].ID)
	}
	if !errors.Is(err, errPanicked) {
		t.Fatalf("JobError does not wrap errPanicked: %v", err)
	}
	for _, want := range []string{"index out of range", "setCorridor"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error lacks the panic value and stack (%q): %v", want, err)
		}
	}
	if n := r.NumNets(); n != 0 || r.MaxUsage() != 0 {
		t.Fatalf("panicked first wave committed %d nets, max usage %d", n, r.MaxUsage())
	}
}

// TestRouteJobsRejectsBadJob: a job RouteNet would reject (no pins, or a
// lift above the top layer) fails the batch with RouteNet's error under
// both strategies and at every parallelism level, before anything is
// planned or routed.
func TestRouteJobsRejectsBadJob(t *testing.T) {
	g := bigGrid()
	for _, bad := range []struct {
		job  Job
		want string
	}{
		{Job{ID: 5000, MinLayer: 1}, "route: net 5000 has no pins"},
		{Job{ID: 5001, Pins: scatteredJobs(1, g, 3)[0].Pins, MinLayer: 11}, "route: net 5001 lift layer M11 above top layer M10"},
	} {
		jobs := scatteredJobs(60, g, 9)
		jobs[30] = bad.job
		for _, s := range []Strategy{StrategyFlat, StrategyHier} {
			for _, p := range []int{1, 4} {
				r := NewRouter(g, Options{Parallelism: p, Strategy: s})
				err := r.RouteJobs(jobs)
				var je *JobError
				if !errors.As(err, &je) || je.Index != 30 || je.ID != bad.job.ID || err.Error() != bad.want {
					t.Fatalf("%s, parallelism %d: err = %v, want job 30's %q", s, p, err, bad.want)
				}
				if n := r.NumNets(); n != 0 || r.MaxUsage() != 0 || r.Hier().CorridorNets != 0 {
					t.Fatalf("%s, parallelism %d: rejected batch left %d nets, max usage %d, %d corridors",
						s, p, n, r.MaxUsage(), r.Hier().CorridorNets)
				}
			}
		}
	}
}

// TestNegotiateKeepsNetCorridors: congestion negotiation re-routes each
// net inside the corridor it was routed in. A hier batch at capacity 1
// routes one net flat after its corridor is cut to a single tile (as in
// TestHierCorridorFallback), and a second net is re-routed flat with
// RouteNet. After negotiation every net still holding a corridor lies
// inside its tiles, the two flat nets hold none, negotiation ran
// corridor-confined re-routes, and the serial and parallel schedules end
// in the same state.
func TestNegotiateKeepsNetCorridors(t *testing.T) {
	g := bigGrid()
	jobs := scatteredJobs(400, g, 7)
	victim := -1
	for i, j := range jobs {
		if len(j.Pins) == 2 && j.MinLayer == 1 &&
			absInt(j.Pins[0].Pt.X-j.Pins[1].Pt.X)/g.GCell > 3*waveTileGCells {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no suitable victim net in workload")
	}
	eco := jobs[(victim+1)%len(jobs)]
	build := func(parallelism int) *Router {
		r := NewRouter(g, Options{Capacity: 1, Parallelism: parallelism, Strategy: StrategyHier})
		r.corridorHook = func(corrs []corridor) {
			corrs[victim].tiles = corrs[victim].tiles[:1]
		}
		if err := r.RouteJobs(jobs); err != nil {
			t.Fatal(err)
		}
		if err := r.RouteNet(eco.ID, eco.Pins, eco.MinLayer); err != nil {
			t.Fatal(err)
		}
		withCorridor := func() int {
			n := 0
			for _, id := range r.SortedNetIDs() {
				if r.Net(id).corr != nil {
					n++
				}
			}
			return n
		}
		had, before := withCorridor(), r.Hier()
		if r.NegotiateReroute() == 0 {
			t.Fatal("negotiation re-routed nothing")
		}
		after := r.Hier()
		if after.NegoCorridor <= before.NegoCorridor {
			t.Fatalf("NegoCorridor %d -> %d: no corridor-confined re-route", before.NegoCorridor, after.NegoCorridor)
		}
		for _, id := range []int{jobs[victim].ID, eco.ID} {
			if rn := r.Net(id); rn.corr != nil {
				t.Fatalf("flat-routed net %d holds a corridor", id)
			}
		}
		// A net loses its corridor in negotiation only by falling back flat.
		if kept, lost := withCorridor(), after.FlatFallbacks-before.FlatFallbacks; kept != had-lost {
			t.Fatalf("%d nets keep a corridor after negotiation, want %d (%d before, %d flat fallbacks)", kept, had-lost, had, lost)
		}
		for _, id := range r.SortedNetIDs() {
			rn := r.Net(id)
			if rn.corr == nil {
				continue
			}
			in := map[int32]bool{}
			for _, ti := range rn.corr.tiles {
				in[ti] = true
			}
			for _, e := range rn.Edges {
				a, b := g.Ends(e)
				for _, n := range []Node{a, b} {
					if !in[r.planner.tileOf(n.X, n.Y)] {
						t.Fatalf("net %d edge end %v outside its corridor", id, n)
					}
				}
			}
		}
		return r
	}
	stateEqual(t, build(1), build(8))
}
