// BenchmarkSuperblueEndToEnd: the full attacker-facing pipeline on one
// superblue stand-in, at a configurable scale divisor. This is the
// benchmark that finally covers the paper's real sizes: at SUPERBLUE_SCALE=1
// it synthesizes, binds, places, routes, and splits superblue18 at its
// published 670k-net size on one machine (see DESIGN.md "Memory layout at
// scale" for the numbers the SoA overhaul buys there). CI runs it once at
// a reduced scale as a smoke check, with one sub-benchmark per routing
// strategy (flat and hier) so both paths keep running end to end.
package splitmfg

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"

	"splitmfg/internal/bench"
	"splitmfg/internal/cell"
	"splitmfg/internal/defense/correction"
	"splitmfg/internal/layout"
	"splitmfg/internal/place"
	"splitmfg/internal/route"
)

// superblueBenchScale reads the scale divisor from SUPERBLUE_SCALE
// (1 = published size). The default keeps the CI bench smoke in seconds.
func superblueBenchScale(b *testing.B) int {
	const def = 400
	s := os.Getenv("SUPERBLUE_SCALE")
	if s == "" {
		return def
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 1 {
		b.Fatalf("bad SUPERBLUE_SCALE %q: want integer >= 1", s)
	}
	return v
}

// benchStrategies are the routing strategies every superblue benchmark
// runs as sub-benchmarks, named by the sub-benchmark's final path
// segment.
var benchStrategies = []route.Strategy{route.StrategyFlat, route.StrategyHier}

// BenchmarkSuperblueEndToEnd measures netlist synthesis -> cell binding ->
// placement at the published utilization -> full routing -> M5 split (the
// FEOL view a foundry adversary starts from) for superblue18, the smallest
// of the five industrial designs, once per routing strategy. One iteration
// is one complete pipeline; allocs/op and B/op therefore bound the
// end-to-end allocation cost of taking a design from published counts to
// an attackable split view. live-MiB is the routed design's live heap
// before the split: HeapAlloc after a forced GC with the design held,
// less HeapAlloc after one before its netlist was built (both outside
// the timer).
func BenchmarkSuperblueEndToEnd(b *testing.B) {
	const name = "superblue18"
	scale := superblueBenchScale(b)
	util, err := bench.SuperblueUtil(name)
	if err != nil {
		b.Fatal(err)
	}
	lib := cell.NewNangate45Like()
	for _, strat := range benchStrategies {
		b.Run(fmt.Sprintf("%s/scale%d/%s", name, scale, strat), func(b *testing.B) {
			var live float64
			for i := 0; i < b.N; i++ {
				base := liveHeap(b)
				nl, err := bench.Superblue(name, scale)
				if err != nil {
					b.Fatal(err)
				}
				d, err := correction.BuildOriginal(nl, lib, correction.Options{
					UtilPercent: util, Seed: 1,
					RouteOpt: route.Options{Strategy: strat},
				})
				if err != nil {
					b.Fatal(err)
				}
				live += float64(liveHeap(b)-base) / (1 << 20)
				sv, err := d.Split(5)
				if err != nil {
					b.Fatal(err)
				}
				if len(sv.VPins) == 0 {
					b.Fatal("split produced no vpins")
				}
			}
			b.ReportMetric(live/float64(b.N), "live-MiB")
		})
	}
}

// liveHeap returns the heap bytes still reachable after a forced GC,
// with the benchmark timer stopped.
func liveHeap(b *testing.B) int64 {
	b.StopTimer()
	defer b.StartTimer()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// BenchmarkSuperblueRoute isolates the routing phase: synthesis, binding,
// and placement run once outside the timer, and each iteration routes the
// placed design from scratch. This is the benchmark the hierarchical
// strategy is judged on — the flat and hier series differ only in how the
// router explores the grid, so their ratio is the pure two-level speedup
// with no placement noise.
func BenchmarkSuperblueRoute(b *testing.B) {
	const name = "superblue18"
	scale := superblueBenchScale(b)
	util, err := bench.SuperblueUtil(name)
	if err != nil {
		b.Fatal(err)
	}
	lib := cell.NewNangate45Like()
	nl, err := bench.Superblue(name, scale)
	if err != nil {
		b.Fatal(err)
	}
	masters, err := lib.Bind(nl)
	if err != nil {
		b.Fatal(err)
	}
	pl, err := place.Place(nl, masters, place.Options{UtilPercent: util, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, strat := range benchStrategies {
		b.Run(fmt.Sprintf("%s/scale%d/%s", name, scale, strat), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d := layout.NewDesign(nl, masters, pl, route.Options{Strategy: strat})
				if err := d.RouteAll(nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
