package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"splitmfg"
	"splitmfg/internal/attack/crouting"
	attackengine "splitmfg/internal/attack/engine"
	"splitmfg/internal/attack/proximity"
	"splitmfg/internal/bench"
	"splitmfg/internal/cell"
	defengine "splitmfg/internal/defense/engine"
	"splitmfg/internal/layout"
	"splitmfg/internal/metrics"
	"splitmfg/internal/netlist"
	"splitmfg/internal/place"
	"splitmfg/internal/route"
	"splitmfg/internal/sim"
	"splitmfg/internal/timing"
)

// replayer re-runs a batch job serially through the layers' public
// functions, in the flow's order and with the flow's seed derivations,
// recording a span around every call and counting each layer's work. It
// recomputes the deterministic values the job's report carries, so the
// per-layer numbers describe the same work the untraced run timed.
type replayer struct {
	ctx    context.Context
	rec    *recorder
	lib    *cell.Library
	req    splitmfg.JobRequest
	seed   int64 // resolved master seed
	counts map[string]float64
	jobs   int

	designs []*replayDesign
	cells   [][][]cellOutcome // [design][defense][replicate]
}

// replayDesign is one design with its shared unprotected baseline.
type replayDesign struct {
	name       string
	nl         *netlist.Netlist
	lift, util int
	base       timing.PPA
}

// cellOutcome is one (design, defense, replicate) build and evaluation:
// the values the flow's MatrixRow carries.
type cellOutcome struct {
	swaps              int
	area, power, delay float64
	attackers          []attackerOutcome
}

// attackerOutcome mirrors flow.AttackerResult: an attacker's outcome
// averaged over the non-vacuous split layers.
type attackerOutcome struct {
	scored   bool
	ccr, oer float64
	layers   int
	metrics  map[string]float64
}

func newReplayer(ctx context.Context, req splitmfg.JobRequest) *replayer {
	seed := req.Seed
	if seed == 0 {
		seed = 1 // JobRequest.Options maps seed 0 to the library's default
	}
	return &replayer{ctx: ctx, rec: newRecorder(), lib: cell.NewNangate45Like(), req: req,
		seed: seed, counts: map[string]float64{}}
}

func (p *replayer) newJob() {
	p.jobs++
	p.rec.setJob(p.jobs)
}

// run replays the whole job under one root span.
func (p *replayer) run() error {
	p.rec.setJob(0)
	root := p.rec.begin("replay")
	defer p.rec.end(root)
	if err := p.load(); err != nil {
		return err
	}
	for _, d := range p.designs {
		p.newJob()
		if err := p.baseline(d); err != nil {
			return fmt.Errorf("%s baseline: %w", d.name, err)
		}
	}
	reps := p.req.Replicates
	if reps <= 0 {
		reps = 1
	}
	p.cells = make([][][]cellOutcome, len(p.designs))
	for b, d := range p.designs {
		p.cells[b] = make([][]cellOutcome, len(p.req.Defenses))
		for k, name := range p.req.Defenses {
			for r := 0; r < reps; r++ {
				p.newJob()
				c, err := p.cell(d, name, replicateSeed(p.seed, r))
				if err != nil {
					return fmt.Errorf("%s %s replicate %d: %w", d.name, name, r, err)
				}
				p.cells[b][k] = append(p.cells[b][k], c)
			}
		}
	}
	return nil
}

// load builds every design's netlist with bench.Load, the call under
// LoadBenchmark, and looks up the settings LoadBenchmark attaches.
func (p *replayer) load() error {
	scale := p.req.Scale
	if scale == 0 {
		scale = 300 // LoadBenchmark's default
	}
	catalog := map[string]splitmfg.CatalogEntry{}
	for _, e := range splitmfg.Catalog() {
		catalog[e.Name] = e
	}
	p.newJob()
	for _, name := range designNames(p.req) {
		e, ok := catalog[name]
		if !ok {
			return fmt.Errorf("unknown design %q", name)
		}
		d := &replayDesign{name: name, lift: e.LiftLayer, util: e.Utilization}
		err := p.rec.do("bench.load", func() (err error) {
			d.nl, err = bench.Load(name, scale)
			return err
		})
		if err != nil {
			return err
		}
		p.designs = append(p.designs, d)
	}
	return nil
}

func (p *replayer) routeOptions() route.Options {
	return route.Options{Parallelism: 1, Strategy: route.Strategy(p.req.RouteStrategy)}
}

// baseline builds a design's unprotected layout the way
// correction.BuildOriginal does, one span per layer call.
func (p *replayer) baseline(d *replayDesign) error {
	var masters []*cell.Master
	err := p.rec.do("cell.bind", func() (err error) {
		masters, err = p.lib.Bind(d.nl)
		return err
	})
	if err != nil {
		return err
	}
	var pl *place.Placement
	err = p.rec.do("place.place", func() (err error) {
		pl, err = place.Place(d.nl, masters, place.Options{UtilPercent: d.util, Seed: p.seed})
		return err
	})
	if err != nil {
		return err
	}
	var ld *layout.Design
	err = p.rec.do("route.route_all", func() error {
		ld = layout.NewDesign(d.nl, masters, pl, p.routeOptions())
		return ld.RouteAll(nil)
	})
	if err != nil {
		return err
	}
	p.countRoute(ld)
	return p.rec.do("timing.analyze", func() (err error) {
		d.base, err = timing.AnalyzeDesign(ld, p.lib)
		return err
	})
}

// countRoute adds one build's routing work to the counters.
func (p *replayer) countRoute(d *layout.Design) {
	st := d.Router.ComputeStats()
	h := d.HierStats()
	p.counts["route.nets"] += float64(d.Router.NumNets())
	p.counts["route.vias"] += float64(st.TotalVias)
	p.counts["route.overflow_edges"] += float64(st.OverflowEdges)
	p.counts["route.corridor_nets"] += float64(h.CorridorNets)
	p.counts["route.flat_fallbacks"] += float64(h.FlatFallbacks)
	p.counts["route.batch_escapes"] += float64(h.BatchEscapes)
	p.counts["route.nego_corridor"] += float64(h.NegoCorridor)
}

// cell builds one defense at a replicate seed, analyzes its PPA against
// the design's baseline and attacks it, as flow.evaluateDefense does.
func (p *replayer) cell(d *replayDesign, name string, repSeed int64) (cellOutcome, error) {
	var c cellOutcome
	def, ok := defengine.Lookup(name)
	if !ok {
		return c, fmt.Errorf("unknown defense %q", name)
	}
	var prot *defengine.Protected
	err := p.rec.do("defense."+name+".build", func() (err error) {
		prot, err = def.Protect(p.ctx, d.nl, p.lib, defengine.Options{
			Seed:             defengine.DeriveSeed(repSeed, "defense"),
			LiftLayer:        d.lift,
			UtilPercent:      d.util,
			TargetOER:        p.req.TargetOER,
			Fraction:         p.req.Fraction,
			RouteParallelism: 1,
			RouteStrategy:    route.Strategy(p.req.RouteStrategy),
		})
		return err
	})
	if err != nil {
		return c, err
	}
	c.swaps = prot.Swaps
	p.counts["defense.swaps"] += float64(prot.Swaps)
	p.countRoute(prot.Design)
	var ppa timing.PPA
	err = p.rec.do("timing.analyze", func() (err error) {
		if prot.Corr != nil {
			ppa, err = timing.AnalyzeRestored(prot.Design, d.nl, prot.Design.Masters, p.lib)
		} else {
			ppa, err = timing.AnalyzeDesign(prot.Design, p.lib)
		}
		return err
	})
	if err != nil {
		return c, err
	}
	c.area, c.power, c.delay = ppa.Overhead(d.base)
	c.attackers, err = p.evaluate(prot.Design, d.nl, prot.ProtectedPins, defengine.DeriveSeed(repSeed, "matrix/"+name))
	return c, err
}

// evaluate attacks every split layer with every attacker, as
// flow.EvaluateSecurity does serially, and averages each attacker over the
// non-vacuous layers.
func (p *replayer) evaluate(d *layout.Design, ref *netlist.Netlist, only map[netlist.PinRef]bool, evalSeed int64) ([]attackerOutcome, error) {
	layers := p.req.SplitLayers
	if len(layers) == 0 {
		layers = []int{3, 4, 5}
	}
	words := p.req.PatternWords
	if words == 0 {
		words = 256
	}
	out := make([]attackerOutcome, len(p.req.Attackers))
	for _, layer := range layers {
		var sv *layout.SplitView
		err := p.rec.do("layout.split", func() (err error) {
			sv, err = d.Split(layer)
			return err
		})
		if err != nil {
			return nil, err
		}
		p.counts["layout.vpins"] += float64(len(sv.VPins))
		var surface metrics.CCRResult
		p.rec.do("metrics.score", func() error {
			surface = scoreCCR(d, sv, ref, nil, only)
			return nil
		})
		if surface.Protected == 0 {
			continue // vacuous: nothing crossed this boundary
		}
		scope := layerSeed(evalSeed, layer)
		for i, name := range p.req.Attackers {
			o := &out[i]
			o.layers++
			switch name {
			case "proximity":
				ccr, oer, err := p.proximity(d, sv, ref, only, scope, words)
				if err != nil {
					return nil, err
				}
				o.scored = true
				o.ccr += ccr
				o.oer += oer
			case "crouting":
				var res crouting.Result
				p.rec.do("attack.crouting", func() error {
					res = crouting.Attack(d, sv, ref, crouting.DefaultOptions())
					return nil
				})
				p.counts["attack.crouting_vpins"] += float64(res.NumVPins)
				if o.metrics == nil {
					o.metrics = map[string]float64{}
				}
				o.metrics["vpins"] += float64(res.NumVPins)
				o.metrics["match_in_list_15"] += res.MatchInList[15]
			default:
				return nil, fmt.Errorf("the replay covers the proximity and crouting attackers, not %q", name)
			}
		}
	}
	for i := range out {
		if n := float64(out[i].layers); n > 0 {
			out[i].ccr /= n
			out[i].oer /= n
			//smlint:ordered independent per-key divisions
			for k, v := range out[i].metrics {
				out[i].metrics[k] = v / n
			}
		}
	}
	return out, nil
}

// proximity runs the network-flow attack on one split view, scores its
// CCR and simulates the recovered netlist, as flow.runAttacker does.
func (p *replayer) proximity(d *layout.Design, sv *layout.SplitView, ref *netlist.Netlist,
	only map[netlist.PinRef]bool, scope int64, words int) (ccr, oer float64, err error) {
	var res proximity.Result
	err = p.rec.do("attack.proximity", func() (err error) {
		res, err = proximity.Attack(p.ctx, d, sv, proximity.DefaultOptions())
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	p.counts["attack.proximity_candidates"] += float64(res.Candidates)
	p.rec.do("metrics.score", func() error {
		ccr = scoreCCR(d, sv, ref, res.Assignment, only).CCR
		return nil
	})
	err = p.rec.do("sim.compare", func() error {
		rec := metrics.RecoverNetlist(d, sv, res.Assignment)
		if rec.HasCombLoop() {
			oer = 1 // an unusable recovered netlist counts as fully erroneous
			return nil
		}
		rng := rand.New(rand.NewSource(attackengine.DeriveSeed(scope, "proximity/patterns")))
		pats := sim.RandomPatterns(rng, ref.NumPIs(), words)
		cmp, err := sim.Compare(ref, rec, pats, words)
		oer = cmp.OER
		p.counts["sim.pattern_words"] += float64(words)
		return err
	})
	return ccr, oer, err
}

// replicateSeed is the flow's per-replicate master seed: replicate 0 is
// the master seed itself.
func replicateSeed(seed int64, rep int) int64 {
	if rep == 0 {
		return seed
	}
	return attackengine.DeriveSeed(seed, "suite/replicate/"+strconv.Itoa(rep))
}

// layerSeed is a copy of the flow's unexported per-split-layer seed
// derivation (a splitmix64 finalizer over the evaluation seed).
func layerSeed(seed int64, layer int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(layer+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// scoreCCR is a copy of the flow's unexported CCR scoring, optionally
// restricted to fragments holding one of the protected sink pins.
func scoreCCR(d *layout.Design, sv *layout.SplitView, ref *netlist.Netlist,
	a metrics.Assignment, only map[netlist.PinRef]bool) metrics.CCRResult {
	if only == nil {
		return metrics.CCR(d, sv, ref, a)
	}
	var res metrics.CCRResult
	truth := metrics.TrueAssignment(d, sv, ref)
	for _, fid := range sv.SinkFrags() {
		hit := false
		for _, sp := range sv.Frags[fid].SinkPins() {
			if sp.Role == layout.RoleSink && only[sp.Ref] {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		res.Protected++
		if got, ok := a[fid]; ok && got == truth[fid] && got >= 0 {
			res.Correct++
		}
	}
	if res.Protected > 0 {
		res.CCR = float64(res.Correct) / float64(res.Protected)
	}
	return res
}

// distOf is the flow's mean and population deviation, summed in slice
// order with the same anti-FMA rounding, so results compare exactly.
func distOf(xs []float64) splitmfg.DistReport {
	n := float64(len(xs))
	if n == 0 {
		return splitmfg.DistReport{}
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	mean := sum / n
	varsum := 0.0
	for _, x := range xs {
		dx := x - mean
		varsum += float64(dx * dx)
	}
	return splitmfg.DistReport{Mean: mean, Std: math.Sqrt(varsum / n)}
}

// verify compares the replay's recomputed values with the job's report:
// baseline PPA, each (defense, replicate)'s swaps and overheads, and each
// attacker's outcome (proximity CCR and OER; crouting vpins and
// match-in-list). It returns every mismatch.
func (p *replayer) verify(rep any) []string {
	var bad []string
	check := func(what string, got, want float64) {
		if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			bad = append(bad, fmt.Sprintf("%s: replay %.10g, report %.10g", what, got, want))
		}
	}
	checkPPA := func(what string, got timing.PPA, want splitmfg.PPAReport) {
		check(what+" area", got.AreaUM2, want.AreaUM2)
		check(what+" power", got.PowerUW, want.PowerUW)
		check(what+" delay", got.DelayPS, want.DelayPS)
		check(what+" wirelength", got.WirelengthUM, want.WirelengthUM)
		check(what+" vias", float64(got.Vias), float64(want.Vias))
	}
	checkDist := func(what string, got, want splitmfg.DistReport) {
		check(what+" mean", got.Mean, want.Mean)
		check(what+" std", got.Std, want.Std)
	}
	switch r := rep.(type) {
	case *splitmfg.SuiteReport:
		if len(r.PerBenchmark) != len(p.designs) {
			return []string{fmt.Sprintf("report has %d designs, replay %d", len(r.PerBenchmark), len(p.designs))}
		}
		for b, d := range p.designs {
			pb := r.PerBenchmark[b]
			checkPPA(d.name+" baseline", d.base, pb.BasePPA)
			for k, name := range p.req.Defenses {
				row, cells := pb.Rows[k], p.cells[b][k]
				what := d.name + "/" + name
				var swaps, power, delay []float64
				for _, c := range cells {
					swaps = append(swaps, float64(c.swaps))
					power = append(power, c.power)
					delay = append(delay, c.delay)
				}
				checkDist(what+" swaps", distOf(swaps), row.Swaps)
				checkDist(what+" power overhead", distOf(power), row.PowerOHPct)
				checkDist(what+" delay overhead", distOf(delay), row.DelayOHPct)
				for a, cell := range row.Cells {
					var ccr, oer []float64
					for _, c := range cells {
						ccr = append(ccr, c.attackers[a].ccr)
						oer = append(oer, c.attackers[a].oer)
					}
					checkDist(what+" "+cell.Attacker+" CCR", percentDist(distOf(ccr)), cell.CCRPercent)
					checkDist(what+" "+cell.Attacker+" OER", percentDist(distOf(oer)), cell.OERPercent)
				}
			}
		}
	case *splitmfg.MatrixReport:
		if len(p.designs) != 1 || len(r.Rows) != len(p.req.Defenses) {
			return []string{"report and replay cover different designs or defenses"}
		}
		d := p.designs[0]
		checkPPA(d.name+" baseline", d.base, r.BasePPA)
		for k, row := range r.Rows {
			c := p.cells[0][k][0]
			check(row.Defense+" swaps", float64(c.swaps), float64(row.Swaps))
			check(row.Defense+" power overhead", c.power, row.PowerOHPct)
			check(row.Defense+" delay overhead", c.delay, row.DelayOHPct)
			for a, cell := range row.Cells {
				o := c.attackers[a]
				if o.scored {
					check(row.Defense+" "+cell.Attacker+" CCR", 100*o.ccr, cell.CCRPercent)
					check(row.Defense+" "+cell.Attacker+" OER", 100*o.oer, cell.OERPercent)
				}
				for _, k := range sortedKeys(o.metrics) {
					check(row.Defense+" "+cell.Attacker+" "+k, o.metrics[k], cell.Metrics[k])
				}
			}
		}
	default:
		return []string{fmt.Sprintf("no replay check for a %T report", rep)}
	}
	return bad
}

func percentDist(d splitmfg.DistReport) splitmfg.DistReport {
	return splitmfg.DistReport{Mean: d.Mean * 100, Std: d.Std * 100}
}

// layerTimes turns the recorded spans into the per-layer *_s metrics:
// summed self time per layer, the defense total across schemes, and the
// root span's self time as the unattributed remainder.
func layerTimes(spans []span) (vals map[string]float64, wall, unattributed float64) {
	vals = map[string]float64{}
	self := selfTimes(spans)
	for _, name := range sortedKeys(self) {
		d := self[name]
		switch {
		case name == "replay":
			unattributed = d.Seconds()
		case strings.HasPrefix(name, "defense."):
			vals[name+"_s"] = d.Seconds()
			vals["defense.build_s"] += d.Seconds()
		default:
			vals[name+"_s"] = d.Seconds()
		}
	}
	for _, s := range spans {
		if s.Parent < 0 {
			wall += (s.End - s.Start).Seconds()
		}
	}
	return vals, wall, unattributed
}
