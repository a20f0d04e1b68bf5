package route

import (
	"math/rand"
	"testing"

	"splitmfg/internal/geom"
)

// benchPins builds a deterministic workload: n two-pin nets with endpoints
// scattered over a 100x100-gcell die, a mix of short and long connections
// like a placed netlist produces.
func benchPins(n int, die geom.Rect) [][]Pin {
	rng := rand.New(rand.NewSource(99))
	pins := make([][]Pin, n)
	for i := range pins {
		a := geom.Point{X: rng.Intn(die.Hi.X), Y: rng.Intn(die.Hi.Y)}
		// Half local (within ~8 gcells), half global connections.
		var b geom.Point
		if i%2 == 0 {
			b = geom.Point{
				X: geom.Clamp(a.X+rng.Intn(8*DefaultGCellNM)-4*DefaultGCellNM, 0, die.Hi.X-1),
				Y: geom.Clamp(a.Y+rng.Intn(8*DefaultGCellNM)-4*DefaultGCellNM, 0, die.Hi.Y-1),
			}
		} else {
			b = geom.Point{X: rng.Intn(die.Hi.X), Y: rng.Intn(die.Hi.Y)}
		}
		pins[i] = []Pin{{Pt: a, Layer: 1}, {Pt: b, Layer: 1}}
	}
	return pins
}

// BenchmarkRouteNet measures routing 400 two-pin nets, half local and
// half die-spanning, one RouteNet call each on a fresh router over a
// 100x100x10 grid. Nothing else runs, so the time is the fine A*
// (searchBounded and its internal/heapx queue) plus the usage updates of
// each route; the allocations are the routed nets and the router's grids.
//
//	go test -bench RouteNet -benchmem ./internal/route
func BenchmarkRouteNet(b *testing.B) {
	die := geom.Rect{Lo: geom.Point{}, Hi: geom.Point{X: 100 * DefaultGCellNM, Y: 100 * DefaultGCellNM}}
	grid := NewGrid(die, DefaultGCellNM, 10)
	pins := benchPins(400, die)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewRouter(grid, Options{})
		for id, p := range pins {
			if err := r.RouteNet(id, p, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRerouteNet measures steady-state rip-up-and-reroute of one net
// on a warm router — the path every re-route takes, negotiation's
// included — and the purest view of the reused A* scratch buffers.
func BenchmarkRerouteNet(b *testing.B) {
	die := geom.Rect{Lo: geom.Point{}, Hi: geom.Point{X: 100 * DefaultGCellNM, Y: 100 * DefaultGCellNM}}
	grid := NewGrid(die, DefaultGCellNM, 10)
	pins := benchPins(400, die)
	r := NewRouter(grid, Options{})
	for id, p := range pins {
		if err := r.RouteNet(id, p, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := i % len(pins)
		if err := r.RouteNet(id, pins[id], 1); err != nil {
			b.Fatal(err)
		}
	}
}
