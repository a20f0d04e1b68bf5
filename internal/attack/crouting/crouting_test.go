package crouting

import (
	"fmt"
	"testing"

	"splitmfg/internal/bench"
	"splitmfg/internal/cell"
	"splitmfg/internal/defense/correction"
	"splitmfg/internal/layout"
	"splitmfg/internal/metrics"
	"splitmfg/internal/netlist"
)

func buildSuperblueLike(t *testing.T) (*netlist.Netlist, *layout.Design) {
	t.Helper()
	nl, err := bench.Superblue("superblue18", 500)
	if err != nil {
		t.Fatal(err)
	}
	lib := cell.NewNangate45Like()
	util, _ := bench.SuperblueUtil("superblue18")
	d, err := correction.BuildOriginal(nl, lib, correction.Options{UtilPercent: util, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return nl, d
}

func TestCroutingBasics(t *testing.T) {
	nl, d := buildSuperblueLike(t)
	sv, err := d.Split(4)
	if err != nil {
		t.Fatal(err)
	}
	res := Attack(d, sv, nl, DefaultOptions())
	if res.NumVPins != len(sv.VPins) {
		t.Fatalf("vpins %d != %d", res.NumVPins, len(sv.VPins))
	}
	if res.NumVPins == 0 {
		t.Skip("no vpins at this split for this seed")
	}
	// E[LS] must grow with the bounding box.
	if res.AvgListSize[15] > res.AvgListSize[30] || res.AvgListSize[30] > res.AvgListSize[45] {
		t.Fatalf("E[LS] not monotone: %v", res.AvgListSize)
	}
	// Match-in-list must also grow (or stay equal) with the box.
	if res.MatchInList[15] > res.MatchInList[30]+1e-9 || res.MatchInList[30] > res.MatchInList[45]+1e-9 {
		t.Fatalf("match-in-list not monotone: %v", res.MatchInList)
	}
}

func TestCroutingEmptyView(t *testing.T) {
	nl, d := buildSuperblueLike(t)
	sv := &layout.SplitView{Layer: 4, ByRoute: map[int][]int{}}
	res := Attack(d, sv, nl, DefaultOptions())
	if res.NumVPins != 0 {
		t.Fatal("vpins on empty view")
	}
}

func TestCroutingCustomBoxes(t *testing.T) {
	nl, d := buildSuperblueLike(t)
	sv, err := d.Split(4)
	if err != nil {
		t.Fatal(err)
	}
	res := Attack(d, sv, nl, Options{BBoxes: []int{5}})
	if _, ok := res.AvgListSize[5]; !ok {
		t.Fatal("custom bbox missing from result")
	}
	// Zero options default to the paper's three boxes.
	res = Attack(d, sv, nl, Options{})
	for _, b := range []int{15, 30, 45} {
		if _, ok := res.AvgListSize[b]; !ok {
			t.Fatalf("default bbox %d missing", b)
		}
	}
}

func TestDirectionFilterShrinksLists(t *testing.T) {
	nl, d := buildSuperblueLike(t)
	sv, err := d.Split(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(sv.VPins) == 0 {
		t.Skip("no vpins")
	}
	withDir := Attack(d, sv, nl, Options{BBoxes: []int{30}, UseDirection: true})
	noDir := Attack(d, sv, nl, Options{BBoxes: []int{30}, UseDirection: false})
	if withDir.AvgListSize[30] > noDir.AvgListSize[30]+1e-9 {
		t.Fatalf("direction filter grew lists: %v vs %v", withDir.AvgListSize[30], noDir.AvgListSize[30])
	}
}

// referenceAttack is Attack's original map-based implementation: gcell
// buckets in a map, and one map-backed candidate set per vpin and box.
// Attack must return exactly its Result.
func referenceAttack(d *layout.Design, sv *layout.SplitView, ref *netlist.Netlist, opt Options) Result {
	if len(opt.BBoxes) == 0 {
		opt.BBoxes = []int{15, 30, 45}
	}
	res := Result{
		NumVPins:    len(sv.VPins),
		AvgListSize: map[int]float64{},
		MatchInList: map[int]float64{},
	}
	if len(sv.VPins) == 0 {
		return res
	}
	type key struct{ x, y int }
	buckets := map[key][]int{}
	for i, vp := range sv.VPins {
		buckets[key{vp.Node.X, vp.Node.Y}] = append(buckets[key{vp.Node.X, vp.Node.Y}], i)
	}
	truth := metrics.TrueAssignment(d, sv, ref)
	partners := map[int]map[int]bool{}
	addPartner := func(a, b int) {
		if partners[a] == nil {
			partners[a] = map[int]bool{}
		}
		partners[a][b] = true
	}
	for sink, drv := range truth {
		if drv >= 0 {
			addPartner(sink, drv)
			addPartner(drv, sink)
		}
	}
	for _, b := range opt.BBoxes {
		var totalList int
		var withPartner, matched int
		for i := range sv.VPins {
			vp := &sv.VPins[i]
			loX, hiX := vp.Node.X-b, vp.Node.X+b
			loY, hiY := vp.Node.Y-b, vp.Node.Y+b
			if opt.UseDirection {
				switch vp.Dir {
				case layout.DirEast:
					loX = vp.Node.X - b/4
				case layout.DirWest:
					hiX = vp.Node.X + b/4
				case layout.DirNorth:
					loY = vp.Node.Y - b/4
				case layout.DirSouth:
					hiY = vp.Node.Y + b/4
				}
			}
			cands := map[int]bool{}
			for x := loX; x <= hiX; x++ {
				for y := loY; y <= hiY; y++ {
					for _, j := range buckets[key{x, y}] {
						other := &sv.VPins[j]
						if other.Frag == vp.Frag {
							continue
						}
						cands[other.Frag] = true
					}
				}
			}
			totalList += len(cands)
			if ps := partners[vp.Frag]; len(ps) > 0 {
				withPartner++
				for p := range ps {
					if cands[p] {
						matched++
						break
					}
				}
			}
		}
		res.AvgListSize[b] = float64(totalList) / float64(len(sv.VPins))
		if withPartner > 0 {
			res.MatchInList[b] = float64(matched) / float64(withPartner)
		}
	}
	return res
}

// TestAttackMatchesReference pins Attack to the map-based reference with
// exact float64 equality. Box 90 reaches past the superblue18/500 grid
// (81×85 gcells, vpins at x 0–80 and y 0–84) on every side, so it
// exercises the clamp to the grid; it also dominates the reference's run
// time, hence the parallel cases.
func TestAttackMatchesReference(t *testing.T) {
	nl, d := buildSuperblueLike(t)
	boxes := []int{5, 15, 30, 45, 90}
	for _, layer := range []int{3, 4} {
		sv, err := d.Split(layer)
		if err != nil {
			t.Fatal(err)
		}
		if len(sv.VPins) == 0 {
			t.Fatalf("M%d: no vpins; the fixture no longer exercises the scan", layer)
		}
		for _, dir := range []bool{true, false} {
			t.Run(fmt.Sprintf("M%d/direction=%v", layer, dir), func(t *testing.T) {
				t.Parallel()
				opt := Options{BBoxes: boxes, UseDirection: dir}
				got, want := Attack(d, sv, nl, opt), referenceAttack(d, sv, nl, opt)
				if got.NumVPins != want.NumVPins {
					t.Fatalf("%d vpins, reference %d", got.NumVPins, want.NumVPins)
				}
				if len(got.AvgListSize) != len(want.AvgListSize) || len(got.MatchInList) != len(want.MatchInList) {
					t.Fatalf("result maps %v / %v, reference %v / %v",
						got.AvgListSize, got.MatchInList, want.AvgListSize, want.MatchInList)
				}
				for _, b := range boxes {
					if got.AvgListSize[b] != want.AvgListSize[b] || got.MatchInList[b] != want.MatchInList[b] {
						t.Fatalf("box %d: E[LS] %v, match %v; reference %v, %v", b,
							got.AvgListSize[b], got.MatchInList[b], want.AvgListSize[b], want.MatchInList[b])
					}
				}
			})
		}
	}
}

// TestAttackAllocs pins the attack's allocations at M3 (1,010 vpins on
// this fixture). The remaining allocations are the ground truth and the
// partner sets; a per-vpin or per-box map in the scan would cost tens of
// thousands.
func TestAttackAllocs(t *testing.T) {
	nl, d := buildSuperblueLike(t)
	sv, err := d.Split(3)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	allocs := testing.AllocsPerRun(3, func() { Attack(d, sv, nl, opt) })
	t.Logf("crouting.Attack at M3 (%d vpins): %.0f allocs/run", len(sv.VPins), allocs)
	if allocs > 6000 {
		t.Fatalf("crouting.Attack allocates %.0f times per run at M3, budget 6000", allocs)
	}
}
