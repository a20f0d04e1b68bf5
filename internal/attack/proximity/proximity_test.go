package proximity

import (
	"context"
	"math/rand"
	"testing"

	"splitmfg/internal/bench"
	"splitmfg/internal/cell"
	"splitmfg/internal/layout"
	"splitmfg/internal/metrics"
	"splitmfg/internal/netlist"
	"splitmfg/internal/place"
	"splitmfg/internal/route"
	"splitmfg/internal/sim"
)

func buildSplit(t testing.TB, name string, splitLayer int) (*layout.Design, *layout.SplitView) {
	t.Helper()
	nl, err := bench.ISCAS85(name)
	if err != nil {
		t.Fatal(err)
	}
	return splitNetlist(t, nl, 70, splitLayer)
}

// splitNetlist binds, places (seed 1) and flat-routes nl, then splits it
// after splitLayer.
func splitNetlist(t testing.TB, nl *netlist.Netlist, util, splitLayer int) (*layout.Design, *layout.SplitView) {
	t.Helper()
	lib := cell.NewNangate45Like()
	masters, err := lib.Bind(nl)
	if err != nil {
		t.Fatal(err)
	}
	p, err := place.Place(nl, masters, place.Options{UtilPercent: util, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := layout.NewDesign(nl, masters, p, route.Options{})
	if err := d.RouteAll(nil); err != nil {
		t.Fatal(err)
	}
	sv, err := d.Split(splitLayer)
	if err != nil {
		t.Fatal(err)
	}
	return d, sv
}

// mustAttack runs the attack and fails the test on any error — the
// uncancelled-context test call sites expect a complete run.
func mustAttack(t testing.TB, d *layout.Design, sv *layout.SplitView, opt Options) Result {
	t.Helper()
	res, err := Attack(context.Background(), d, sv, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAttackOriginalLayoutHighCCR(t *testing.T) {
	// On an unprotected layout the proximity attack must recover far more
	// than chance. The paper reports ~94% CCR with commercial layouts; our
	// synthetic netlists and laptop-grade placement carry a weaker
	// proximity signal (documented in EXPERIMENTS.md), so the bar here is
	// a strong relative result: an order of magnitude above the random
	// baseline of 1/#drivers, and at least half of c1908's fragments.
	d, sv := buildSplit(t, "c1908", 3)
	res := mustAttack(t, d, sv, DefaultOptions())
	ccr := metrics.CCR(d, sv, d.Netlist, res.Assignment)
	if ccr.Protected == 0 {
		t.Fatal("nothing to attack")
	}
	// Random-guess baseline is ~1/24 candidates ≈ 4%; require the attack
	// to beat it by >5x. (Absolute CCR on our synthetic substrate runs
	// 0.3–0.6 vs the paper's 0.94 on commercial layouts; see
	// EXPERIMENTS.md for the calibration discussion.)
	if ccr.CCR < 0.25 {
		t.Fatalf("attack too weak on original layout: CCR=%.2f (%d/%d)", ccr.CCR, ccr.Correct, ccr.Protected)
	}
	t.Logf("c1908 M3 split: CCR=%.2f over %d sink fragments, avg candidates %.1f", ccr.CCR, ccr.Protected, res.AvgCands)
}

func TestAttackCompleteAssignment(t *testing.T) {
	d, sv := buildSplit(t, "c432", 3)
	res := mustAttack(t, d, sv, DefaultOptions())
	for _, sf := range sv.SinkFrags() {
		if _, ok := res.Assignment[sf]; !ok {
			t.Fatalf("sink fragment %d left unassigned", sf)
		}
	}
}

func TestAttackRecoveredNetlistLowHD(t *testing.T) {
	d, sv := buildSplit(t, "c432", 3)
	res := mustAttack(t, d, sv, DefaultOptions())
	rec := metrics.RecoverNetlist(d, sv, res.Assignment)
	if err := rec.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	pats := sim.RandomPatterns(rng, d.Netlist.NumPIs(), 256)
	cmp, err := sim.Compare(d.Netlist, rec, pats, 256)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Table 4: original layouts show single-digit..~23% HD. Anything
	// below 30% demonstrates the attack works on unprotected layouts.
	if cmp.HD > 0.30 {
		t.Fatalf("recovered netlist HD=%.2f too high for unprotected layout", cmp.HD)
	}
	t.Logf("c432 recovered: OER=%.3f HD=%.3f", cmp.OER, cmp.HD)
}

func TestAttackNoLoops(t *testing.T) {
	d, sv := buildSplit(t, "c880", 4)
	res := mustAttack(t, d, sv, DefaultOptions())
	rec := metrics.RecoverNetlist(d, sv, res.Assignment)
	if rec.HasCombLoop() {
		t.Fatal("loop-aware attack produced a combinational loop")
	}
}

func TestHintAblationDistanceOnlyWeaker(t *testing.T) {
	d, sv := buildSplit(t, "c1908", 3)
	full := mustAttack(t, d, sv, DefaultOptions())
	bare := mustAttack(t, d, sv, Options{Candidates: 24}) // distance only
	ccrFull := metrics.CCR(d, sv, d.Netlist, full.Assignment)
	ccrBare := metrics.CCR(d, sv, d.Netlist, bare.Assignment)
	// All-hints should be at least as good as distance-only (allow tiny
	// noise margin).
	if ccrFull.CCR+0.02 < ccrBare.CCR {
		t.Fatalf("hints hurt the attack: full=%.3f bare=%.3f", ccrFull.CCR, ccrBare.CCR)
	}
}

func TestAttackEmptyView(t *testing.T) {
	d, _ := buildSplit(t, "c432", 3)
	empty := &layout.SplitView{Layer: 3, ByRoute: map[int][]int{}}
	res := mustAttack(t, d, empty, DefaultOptions())
	if len(res.Assignment) != 0 {
		t.Fatal("assignment on empty view")
	}
}

func TestCandidateLimitRespected(t *testing.T) {
	d, sv := buildSplit(t, "c432", 3)
	res := mustAttack(t, d, sv, Options{Candidates: 5})
	nSinks := len(sv.SinkFrags())
	if nSinks > 0 && res.AvgCands > 5.0 {
		t.Fatalf("avg candidates %.1f exceeds limit 5", res.AvgCands)
	}
}

func BenchmarkAttackC880(b *testing.B) {
	d, sv := buildSplit(b, "c880", 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustAttack(b, d, sv, DefaultOptions())
	}
}

// TestStaticLoopMatchesPathExists checks the level-pruned static loop
// filter against wouldLoop on every candidate (driver, sink) pair of the
// M3 attack on c880, c3540 and a small superblue18, whose 12% DFFs
// exercise the PathExists fallback.
func TestStaticLoopMatchesPathExists(t *testing.T) {
	for _, name := range []string{"c880", "c3540", "superblue18"} {
		t.Run(name, func(t *testing.T) {
			var d *layout.Design
			var sv *layout.SplitView
			if name == "superblue18" {
				nl, err := bench.Superblue(name, 500)
				if err != nil {
					t.Fatal(err)
				}
				util, err := bench.SuperblueUtil(name)
				if err != nil {
					t.Fatal(err)
				}
				d, sv = splitNetlist(t, nl, util, 3)
			} else {
				d, sv = buildSplit(t, name, 3)
			}
			a, _, err := prepare(context.Background(), d, sv, DefaultOptions())
			if err != nil || a == nil {
				t.Fatalf("prepare: %v (attack %v)", err, a)
			}
			if a.levels == nil {
				t.Fatal("known netlist has no levels: the pruned path is never taken")
			}
			pairs, loops, dff := 0, 0, 0
			for _, c := range a.cands {
				dg, sg := a.dinfos[c.didx].gate, a.sinkGate[c.sink]
				if dg < 0 || sg < 0 {
					continue
				}
				got, want := a.staticLoop(dg, sg), wouldLoop(a.known, dg, sg)
				if got != want {
					t.Fatalf("driver gate %d, sink gate %d: pruned check %v, wouldLoop %v", dg, sg, got, want)
				}
				pairs++
				if want {
					loops++
				}
				if a.known.Gates[dg].Type.IsSequential() || a.known.Gates[sg].Type.IsSequential() {
					dff++
				}
			}
			if loops == 0 {
				t.Fatalf("none of %d pairs closes a loop: the check is untested", pairs)
			}
			if name == "superblue18" && dff == 0 {
				t.Fatalf("no pair has a DFF end: the fallback is untested")
			}
			t.Logf("%d pairs, %d close a loop, %d have a DFF end", pairs, loops, dff)
		})
	}
}

// BenchmarkAttackC7552 times one M3 attack on the largest ISCAS-85
// design's flat original layout.
func BenchmarkAttackC7552(b *testing.B) {
	d, sv := buildSplit(b, "c7552", 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustAttack(b, d, sv, DefaultOptions())
	}
}
