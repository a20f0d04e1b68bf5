// Package crouting implements a routing-centric attack in the style of
// Magaña, Shi, Davoodi, "Are proximity attacks a threat to the security of
// split manufacturing of integrated circuits?" (ICCAD 2016) — the attack
// the paper uses on the superblue suite (their "crouting" variant).
//
// Unlike the network-flow attack, crouting does not output a netlist; it
// confines the solution space: for every vpin it builds a candidate list
// of possible partner fragments found within an expanded bounding box
// around the vpin's dangling wire. The reported metrics are the paper's
// Table 3 columns: the number of vpins, the expected candidate-list size
// E[LS] per bounding-box size, and the match-in-list rate (how often the
// true partner is actually in the list — when it is not, no downstream
// attack can ever recover that net).
package crouting

import (
	"splitmfg/internal/layout"
	"splitmfg/internal/metrics"
	"splitmfg/internal/netlist"
)

// Options tunes the attack.
type Options struct {
	BBoxes       []int // candidate bounding-box half-widths in gcells (paper: 15, 30, 45)
	UseDirection bool  // extend the box only toward the dangling direction
}

// DefaultOptions mirrors the paper's Table 3 setup.
func DefaultOptions() Options {
	return Options{BBoxes: []int{15, 30, 45}, UseDirection: true}
}

// Result aggregates the crouting metrics per bounding-box size.
type Result struct {
	NumVPins    int
	AvgListSize map[int]float64 // bbox -> E[LS]
	MatchInList map[int]float64 // bbox -> fraction with true partner in list
}

// Attack runs the candidate-list construction over a split view. ref (the
// original netlist) is used only for the match-in-list ground-truth metric;
// the candidate lists themselves are FEOL-only.
//
// Range queries run over a CSR index of vpin fragments binned by gcell
// (one contiguous bin range per box row), and each candidate list is an
// epoch-stamped set over fragment IDs, so the per-vpin, per-box scan
// allocates nothing.
func Attack(d *layout.Design, sv *layout.SplitView, ref *netlist.Netlist, opt Options) Result {
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
	bins := binVPins(d.Grid.W, d.Grid.H, sv.VPins)
	// Ground truth: fragment -> set of true partner fragments.
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

	// seen[f] == ep marks fragment f as a candidate of the current
	// (vpin, box) list; ep is bumped per list, so the set never clears.
	seen := make([]int32, len(sv.Frags))
	var ep int32
	for _, b := range opt.BBoxes {
		var totalList int
		var withPartner, matched int
		for i := range sv.VPins {
			vp := &sv.VPins[i]
			loX, hiX := vp.Node.X-b, vp.Node.X+b
			loY, hiY := vp.Node.Y-b, vp.Node.Y+b
			if opt.UseDirection {
				// The dangling wire points toward the partner: shrink the
				// box behind the vpin to half depth.
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
			ep++
			totalList += bins.collect(vp.Frag, loX, hiX, loY, hiY, seen, ep)
			if ps := partners[vp.Frag]; len(ps) > 0 {
				withPartner++
				for p := range ps {
					if seen[p] == ep {
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

// gcellBins is a CSR index of vpins by gcell over a w×h grid: the
// fragments of the vpins in gcell (x, y) are frags[start[y*w+x]:
// start[y*w+x+1]], in vpin order. Bins are row-major, so the gcells of
// one box row are one contiguous range.
type gcellBins struct {
	w, h  int
	start []int32
	frags []int32
}

// binVPins builds the index with a counting sort over gcells.
func binVPins(w, h int, vpins []layout.VPin) gcellBins {
	b := gcellBins{w: w, h: h, start: make([]int32, w*h+1), frags: make([]int32, len(vpins))}
	for i := range vpins {
		b.start[vpins[i].Node.Y*w+vpins[i].Node.X+1]++
	}
	for c := 1; c < len(b.start); c++ {
		b.start[c] += b.start[c-1]
	}
	// Fill each bin through its start offset as a cursor; afterwards
	// start[c] holds bin c's end (= bin c+1's start), so shift back by one.
	for i := range vpins {
		c := vpins[i].Node.Y*w + vpins[i].Node.X
		b.frags[b.start[c]] = int32(vpins[i].Frag)
		b.start[c]++
	}
	copy(b.start[1:], b.start)
	b.start[0] = 0
	return b
}

// collect stamps every fragment other than frag that owns a vpin in the
// inclusive gcell box [loX, hiX] × [loY, hiY] (clamped to the grid) into
// seen with ep, and returns how many distinct fragments it stamped — the
// size of that box's candidate list.
//
//smlint:hot
func (b *gcellBins) collect(frag, loX, hiX, loY, hiY int, seen []int32, ep int32) int {
	loX, hiX = max(loX, 0), min(hiX, b.w-1)
	loY, hiY = max(loY, 0), min(hiY, b.h-1)
	if loX > hiX {
		return 0
	}
	n := 0
	for y := loY; y <= hiY; y++ {
		row := y * b.w
		for _, f := range b.frags[b.start[row+loX]:b.start[row+hiX+1]] {
			if int(f) == frag || seen[f] == ep {
				continue // own fragment (not a reconnection), or already listed
			}
			seen[f] = ep
			n++
		}
	}
	return n
}
