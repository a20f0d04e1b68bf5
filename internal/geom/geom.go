// Package geom provides the small integer geometry kit shared by the
// placement, routing, and layout packages. All coordinates are in
// nanometers (database units), matching a 45nm-class technology; helper
// conversions to microns are provided for reporting, since the paper's
// Table 1 reports distances in microns.
package geom

import "fmt"

// NMPerMicron is the number of database units per micron.
const NMPerMicron = 1000

// Point is a location in nanometers.
type Point struct {
	X, Y int
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p minus q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Manhattan returns the L1 distance between two points in nanometers.
func (p Point) Manhattan(q Point) int {
	return abs(p.X-q.X) + abs(p.Y-q.Y)
}

// Microns converts a nanometer length to microns.
func Microns(nm int) float64 { return float64(nm) / NMPerMicron }

// String renders the point as (x,y) in nm.
func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// Rect is an axis-aligned rectangle; Lo is inclusive, Hi exclusive.
type Rect struct {
	Lo, Hi Point
}

// NewRect normalizes the corner order.
func NewRect(a, b Point) Rect {
	r := Rect{a, b}
	if r.Lo.X > r.Hi.X {
		r.Lo.X, r.Hi.X = r.Hi.X, r.Lo.X
	}
	if r.Lo.Y > r.Hi.Y {
		r.Lo.Y, r.Hi.Y = r.Hi.Y, r.Lo.Y
	}
	return r
}

// W returns the rectangle width.
func (r Rect) W() int { return r.Hi.X - r.Lo.X }

// H returns the rectangle height.
func (r Rect) H() int { return r.Hi.Y - r.Lo.Y }

// Area returns the rectangle area in nm^2.
func (r Rect) Area() int64 { return int64(r.W()) * int64(r.H()) }

// Contains reports whether p lies inside r (Lo inclusive, Hi exclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Lo.X && p.X < r.Hi.X && p.Y >= r.Lo.Y && p.Y < r.Hi.Y
}

// Overlaps reports whether two rectangles share interior area.
func (r Rect) Overlaps(o Rect) bool {
	return r.Lo.X < o.Hi.X && o.Lo.X < r.Hi.X && r.Lo.Y < o.Hi.Y && o.Lo.Y < r.Hi.Y
}

// Center returns the rectangle center.
func (r Rect) Center() Point {
	return Point{(r.Lo.X + r.Hi.X) / 2, (r.Lo.Y + r.Hi.Y) / 2}
}

// BBox returns the bounding box of a point set; ok is false for empty input.
func BBox(pts []Point) (Rect, bool) {
	if len(pts) == 0 {
		return Rect{}, false
	}
	r := Rect{pts[0], pts[0]}
	for _, p := range pts[1:] {
		if p.X < r.Lo.X {
			r.Lo.X = p.X
		}
		if p.Y < r.Lo.Y {
			r.Lo.Y = p.Y
		}
		if p.X > r.Hi.X {
			r.Hi.X = p.X
		}
		if p.Y > r.Hi.Y {
			r.Hi.Y = p.Y
		}
	}
	return r, true
}

// HPWL returns the half-perimeter wirelength of a point set in nm.
func HPWL(pts []Point) int {
	r, ok := BBox(pts)
	if !ok {
		return 0
	}
	return r.W() + r.H()
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
