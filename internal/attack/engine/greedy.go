package engine

import (
	"context"

	"splitmfg/internal/attack/proximity"
	"splitmfg/internal/geom"
	"splitmfg/internal/layout"
	"splitmfg/internal/metrics"
)

func init() { Register(greedyEngine{}) }

// greedyEngine is a direction-aware greedy attacker: each open sink
// fragment grabs the nearest driver fragment whose dangling-wire direction
// is compatible and which still has fanout capacity, with no joint
// optimization. It keeps two of the proximity attack's five hints
// (distance, direction) and drops the min-cost max-flow machinery, trading
// a few CCR points for near-linear runtime — the approximation of choice
// at superblue scale, and a measure of how much the flow solve itself
// contributes on ISCAS.
type greedyEngine struct{}

// greedyDirPenalty multiplies the distance cost when the dangling
// directions of driver and sink disagree, mirroring the proximity attack's
// default penalty.
const greedyDirPenalty = 4.0

func (greedyEngine) Name() string { return "greedy" }

func (greedyEngine) Attack(ctx context.Context, d *layout.Design, sv *layout.SplitView, opt Options) (Result, error) {
	type dinfo struct {
		fid    int
		pt     geom.Point
		capRem int
		dirs   []layout.Direction
	}
	var dinfos []dinfo
	for _, fid := range proximity.CandidateDrivers(sv) {
		f := &sv.Frags[fid]
		di := dinfo{fid: fid, pt: sv.FragCenter(d, fid), capRem: proximity.MaxEdgeCapacity,
			dirs: proximity.AppendFragDirs(nil, sv, fid)}
		for _, p := range f.Pins {
			if p.Role == layout.RoleDriver {
				// Same realistic fanout ceiling the proximity attack uses.
				di.capRem = proximity.LoadSlots(d, f, p.Gate)
			}
		}
		dinfos = append(dinfos, di)
	}
	sinks := sv.SinkFrags()
	res := Result{Assignment: metrics.Assignment{}, Metrics: map[string]float64{}}
	if len(dinfos) == 0 || len(sinks) == 0 {
		return res, ctx.Err()
	}

	compatible := 0
	var sdirs []layout.Direction
	for _, sfid := range sinks {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		spt := sv.FragCenter(d, sfid)
		sdirs = proximity.AppendFragDirs(sdirs[:0], sv, sfid)
		best, bestCost, bestCompat := -1, 0.0, false
		pick := func(ignoreCap bool) {
			for di := range dinfos {
				dd := &dinfos[di]
				if !ignoreCap && dd.capRem <= 0 {
					continue
				}
				cost := float64(spt.Manhattan(dd.pt)) + 1
				compat := proximity.DirsCompatible(dd.dirs, dd.pt, spt) && proximity.DirsCompatible(sdirs, spt, dd.pt)
				if !compat {
					cost *= greedyDirPenalty
				}
				// Strict < keeps the lowest driver index on ties (dinfos is
				// in ascending fragment order), so the pass is deterministic.
				if best < 0 || cost < bestCost {
					best, bestCost, bestCompat = di, cost, compat
				}
			}
		}
		pick(false)
		if best < 0 {
			// Every driver saturated: fall back to the same direction-aware
			// choice ignoring capacity, so the sink is still answered.
			pick(true)
		}
		dinfos[best].capRem--
		res.Assignment[sfid] = dinfos[best].fid
		if bestCompat {
			compatible++
		}
	}
	res.Metrics["dir_compatible"] = float64(compatible) / float64(len(sinks))
	return res, nil
}
