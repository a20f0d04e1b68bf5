package layout

import (
	"testing"

	"splitmfg/internal/bench"
	"splitmfg/internal/cell"
	"splitmfg/internal/place"
	"splitmfg/internal/route"
)

// BenchmarkRouteAllC880 measures the flat full-design route (placement is
// built once outside the loop; each iteration constructs a fresh Design so
// the router grids start empty). This is the "RouteAll" datapoint behind
// DESIGN.md's memory-layout numbers.
func BenchmarkRouteAllC880(b *testing.B) {
	nl, err := bench.ISCAS85("c880")
	if err != nil {
		b.Fatal(err)
	}
	lib := cell.NewNangate45Like()
	masters, err := lib.Bind(nl)
	if err != nil {
		b.Fatal(err)
	}
	p, err := place.Place(nl, masters, place.Options{UtilPercent: 70, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := NewDesign(nl, masters, p, route.Options{})
		if err := d.RouteAll(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSplitC3540 measures Split on the routed c3540 at M3, M4 and
// M5 (one op is all three views), the split layers the security
// evaluation uses by default. The design is routed once outside the
// loop.
func BenchmarkSplitC3540(b *testing.B) {
	d := buildDesign(b, "c3540")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for layer := 3; layer <= 5; layer++ {
			if _, err := d.Split(layer); err != nil {
				b.Fatal(err)
			}
		}
	}
}
