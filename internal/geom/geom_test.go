package geom

import (
	"testing"
	"testing/quick"
)

func TestManhattan(t *testing.T) {
	a := Point{0, 0}
	b := Point{3000, 4000}
	if d := a.Manhattan(b); d != 7000 {
		t.Fatalf("d = %d", d)
	}
	if d := b.Manhattan(a); d != 7000 {
		t.Fatalf("not symmetric: %d", d)
	}
	if a.Manhattan(a) != 0 {
		t.Fatal("self distance nonzero")
	}
}

func TestMicrons(t *testing.T) {
	if Microns(2500) != 2.5 {
		t.Fatalf("Microns(2500) = %v", Microns(2500))
	}
}

func TestRectBasics(t *testing.T) {
	r := NewRect(Point{10, 20}, Point{0, 5})
	if r.Lo != (Point{0, 5}) || r.Hi != (Point{10, 20}) {
		t.Fatalf("not normalized: %+v", r)
	}
	if r.W() != 10 || r.H() != 15 || r.Area() != 150 {
		t.Fatalf("dims wrong: %d %d %d", r.W(), r.H(), r.Area())
	}
	if !r.Contains(Point{0, 5}) || r.Contains(Point{10, 20}) {
		t.Fatal("containment semantics wrong (lo inclusive, hi exclusive)")
	}
}

func TestOverlapsAndUnion(t *testing.T) {
	a := NewRect(Point{0, 0}, Point{10, 10})
	b := NewRect(Point{5, 5}, Point{15, 15})
	c := NewRect(Point{10, 0}, Point{20, 10}) // touching edge: no interior overlap
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Fatal("a/b should overlap")
	}
	if a.Overlaps(c) {
		t.Fatal("edge-touching rects should not overlap")
	}
}

func TestExpandCenter(t *testing.T) {
	r := NewRect(Point{10, 10}, Point{20, 30})
	if r.Center() != (Point{15, 20}) {
		t.Fatalf("center = %v", r.Center())
	}
}

func TestBBoxHPWL(t *testing.T) {
	pts := []Point{{0, 0}, {10, 5}, {3, 8}}
	r, ok := BBox(pts)
	if !ok || r != NewRect(Point{0, 0}, Point{10, 8}) {
		t.Fatalf("bbox = %+v ok=%v", r, ok)
	}
	if HPWL(pts) != 18 {
		t.Fatalf("hpwl = %d", HPWL(pts))
	}
	if _, ok := BBox(nil); ok {
		t.Fatal("empty bbox should be !ok")
	}
	if HPWL(nil) != 0 {
		t.Fatal("empty hpwl nonzero")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 10) != 5 || Clamp(-1, 0, 10) != 0 || Clamp(11, 0, 10) != 10 {
		t.Fatal("clamp wrong")
	}
}

func TestPropertyManhattanTriangle(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int16) bool {
		a := Point{int(ax), int(ay)}
		b := Point{int(bx), int(by)}
		c := Point{int(cx), int(cy)}
		// triangle inequality and symmetry
		return a.Manhattan(c) <= a.Manhattan(b)+b.Manhattan(c) &&
			a.Manhattan(b) == b.Manhattan(a) && a.Manhattan(b) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
