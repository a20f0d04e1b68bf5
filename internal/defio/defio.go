// Package defio provides the layout-exchange formats the paper ships with
// its artifact: a DEF-subset writer/parser for protected layouts, the
// FEOL/BEOL split utility, and the .rt/.out emitters that convert routed
// layouts into the input format of routing-centric attack tooling (the
// paper provides equivalent conversion scripts because the crouting
// scripts were "tailored for academic routers").
//
// The DEF subset covers exactly what the flow produces: DESIGN/UNITS/
// DIEAREA, COMPONENTS (placed cells, with correction cells marked via the
// SOURCE DIST attribute), PINS, and NETS with gcell-resolution ROUTED
// geometry using layer names M1..M10.
package defio

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"splitmfg/internal/geom"
	"splitmfg/internal/layout"
	"splitmfg/internal/route"
)

// File is the parsed form of our DEF subset.
type File struct {
	Design     string
	UnitsPerUM int
	Die        geom.Rect
	Components []Component
	Pins       []Pin
	Nets       []Net
}

// Component is one placed cell instance.
type Component struct {
	Name   string
	Master string
	Loc    geom.Point
	Dist   bool // SOURCE DIST: correction/lifting cell
}

// Pin is a top-level terminal.
type Pin struct {
	Name string
	Dir  string // INPUT or OUTPUT
	Loc  geom.Point
}

// Net is a routed net: its ROUTED statements in file order.
type Net struct {
	Name     string
	Segments []Segment
}

// Segment is one ROUTED statement in DEF units: a wire on Layer from A to
// B, or, when Via is set, a via at A from Layer up to Layer+1 (B == A).
type Segment struct {
	Layer int
	A, B  geom.Point
	Via   bool
}

// Write emits the design as DEF. Net names are route-entity names:
// netlist nets use their netlist names, synthetic entities get rt<id>.
func Write(w io.Writer, d *layout.Design) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "VERSION 5.8 ;\nDESIGN %s ;\nUNITS DISTANCE MICRONS %d ;\n",
		d.Netlist.Name, geom.NMPerMicron)
	die := d.Placement.Die
	fmt.Fprintf(bw, "DIEAREA ( %d %d ) ( %d %d ) ;\n", die.Lo.X, die.Lo.Y, die.Hi.X, die.Hi.Y)

	fmt.Fprintf(bw, "COMPONENTS %d ;\n", len(d.Placement.Cells)+len(d.Extras))
	for gid, c := range d.Placement.Cells {
		fmt.Fprintf(bw, "- %s %s + PLACED ( %d %d ) N ;\n",
			defName(d.Netlist.Gates[gid].Name), c.Master.Name, c.Loc.X, c.Loc.Y)
	}
	for _, e := range d.Extras {
		fmt.Fprintf(bw, "- xcell_%d %s + SOURCE DIST + PLACED ( %d %d ) N ;\n",
			e.ID, e.Master.Name, e.Loc.X, e.Loc.Y)
	}
	fmt.Fprintf(bw, "END COMPONENTS\n")

	fmt.Fprintf(bw, "PINS %d ;\n", d.Netlist.NumPIs()+d.Netlist.NumPOs())
	for i, name := range d.Netlist.PINames {
		p := d.Placement.PIPads[i]
		fmt.Fprintf(bw, "- %s + DIRECTION INPUT + PLACED ( %d %d ) ;\n", defName(name), p.X, p.Y)
	}
	for i, name := range d.Netlist.PONames {
		p := d.Placement.POPads[i]
		fmt.Fprintf(bw, "- %s + DIRECTION OUTPUT + PLACED ( %d %d ) ;\n", defName(name), p.X, p.Y)
	}
	fmt.Fprintf(bw, "END PINS\n")

	ids := d.Router.SortedNetIDs()
	fmt.Fprintf(bw, "NETS %d ;\n", len(ids))
	for _, id := range ids {
		rn := d.Router.Net(id)
		fmt.Fprintf(bw, "- %s\n", entityName(d, id))
		for _, e := range rn.Edges {
			writeRouted(bw, d.Grid, e)
		}
		fmt.Fprintf(bw, " ;\n")
	}
	fmt.Fprintf(bw, "END NETS\nEND DESIGN\n")
	return bw.Flush()
}

// writeRouted emits one routed edge as a ROUTED statement at gcell
// centers: a via at its lower end, or a wire on its layer.
func writeRouted(bw *bufio.Writer, g route.Grid, e route.Edge) {
	a, b := g.Ends(e)
	pa, pb := g.CenterOf(a), g.CenterOf(b)
	if a.Z != b.Z {
		lo := min(a.Z, b.Z)
		fmt.Fprintf(bw, "  + ROUTED M%d ( %d %d ) VIA V%d%d\n", lo, pa.X, pa.Y, lo, lo+1)
	} else {
		fmt.Fprintf(bw, "  + ROUTED M%d ( %d %d ) ( %d %d )\n", a.Z, pa.X, pa.Y, pb.X, pb.Y)
	}
}

func entityName(d *layout.Design, id int) string {
	if id < d.Netlist.NumNets() {
		return defName(d.Netlist.Nets[id].Name)
	}
	return fmt.Sprintf("rt%d", id)
}

func defName(s string) string {
	if s == "" {
		return "_"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '[', r == ']':
			return r
		default:
			return '_'
		}
	}, s)
}

// Parse reads the DEF subset back into a File.
func Parse(r io.Reader) (*File, error) {
	f := &File{UnitsPerUM: geom.NMPerMicron}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 64*1024*1024)
	section := ""
	var curNet *Net
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "DESIGN "):
			if len(fields) < 2 {
				return nil, fmt.Errorf("defio: line %d: bad DESIGN", lineNo)
			}
			f.Design = fields[1]
		case strings.HasPrefix(line, "UNITS "):
			if len(fields) < 4 {
				return nil, fmt.Errorf("defio: line %d: bad units", lineNo)
			}
			v, err := strconv.Atoi(fields[3])
			if err != nil {
				return nil, fmt.Errorf("defio: line %d: bad units", lineNo)
			}
			f.UnitsPerUM = v
		case strings.HasPrefix(line, "DIEAREA "):
			nums := extractInts(fields)
			if len(nums) != 4 {
				return nil, fmt.Errorf("defio: line %d: bad DIEAREA", lineNo)
			}
			f.Die = geom.NewRect(geom.Point{X: nums[0], Y: nums[1]}, geom.Point{X: nums[2], Y: nums[3]})
		case strings.HasPrefix(line, "COMPONENTS "):
			section = "components"
		case strings.HasPrefix(line, "PINS "):
			section = "pins"
		case strings.HasPrefix(line, "NETS "):
			section = "nets"
		case strings.HasPrefix(line, "END "):
			if curNet != nil {
				f.Nets = append(f.Nets, *curNet)
				curNet = nil
			}
			section = ""
		case line == ";":
			if curNet != nil {
				f.Nets = append(f.Nets, *curNet)
				curNet = nil
			}
		default:
			switch section {
			case "components":
				if !strings.HasPrefix(line, "- ") {
					continue
				}
				nums := extractInts(fields)
				if len(nums) < 2 {
					return nil, fmt.Errorf("defio: line %d: component without location", lineNo)
				}
				f.Components = append(f.Components, Component{
					Name:   fields[1],
					Master: fields[2],
					Loc:    geom.Point{X: nums[len(nums)-2], Y: nums[len(nums)-1]},
					Dist:   strings.Contains(line, "SOURCE DIST"),
				})
			case "pins":
				if !strings.HasPrefix(line, "- ") {
					continue
				}
				nums := extractInts(fields)
				dir := "INPUT"
				if strings.Contains(line, "OUTPUT") {
					dir = "OUTPUT"
				}
				if len(nums) < 2 {
					return nil, fmt.Errorf("defio: line %d: pin without location", lineNo)
				}
				f.Pins = append(f.Pins, Pin{Name: fields[1], Dir: dir, Loc: geom.Point{X: nums[0], Y: nums[1]}})
			case "nets":
				if strings.HasPrefix(line, "- ") {
					if curNet != nil {
						f.Nets = append(f.Nets, *curNet)
					}
					curNet = &Net{Name: fields[1]}
					if strings.HasSuffix(line, ";") {
						f.Nets = append(f.Nets, *curNet)
						curNet = nil
					}
					continue
				}
				if curNet == nil || !strings.HasPrefix(line, "+ ROUTED ") {
					continue
				}
				layer, err := parseLayer(fields[2])
				if err != nil {
					return nil, fmt.Errorf("defio: line %d: %v", lineNo, err)
				}
				nums := extractInts(fields)
				if strings.Contains(line, "VIA") {
					if len(nums) < 2 {
						return nil, fmt.Errorf("defio: line %d: bad via", lineNo)
					}
					at := geom.Point{X: nums[0], Y: nums[1]}
					curNet.Segments = append(curNet.Segments, Segment{Layer: layer, A: at, B: at, Via: true})
				} else {
					if len(nums) < 4 {
						return nil, fmt.Errorf("defio: line %d: bad segment", lineNo)
					}
					curNet.Segments = append(curNet.Segments, Segment{
						Layer: layer,
						A:     geom.Point{X: nums[0], Y: nums[1]},
						B:     geom.Point{X: nums[2], Y: nums[3]},
					})
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return f, nil
}

func parseLayer(s string) (int, error) {
	if !strings.HasPrefix(s, "M") {
		return 0, fmt.Errorf("bad layer %q", s)
	}
	return strconv.Atoi(s[1:])
}

func extractInts(fields []string) []int {
	var out []int
	for _, f := range fields {
		if v, err := strconv.Atoi(f); err == nil {
			out = append(out, v)
		}
	}
	return out
}

// WriteSplit writes the FEOL-only DEF after splitting: net geometry above
// the split layer is dropped and each boundary via becomes an annotated
// vpin comment consumed by WriteOut.
func WriteSplit(w io.Writer, d *layout.Design, splitLayer int) error {
	sv, err := d.Split(splitLayer)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "VERSION 5.8 ;\nDESIGN %s_feol_M%d ;\nUNITS DISTANCE MICRONS %d ;\n",
		d.Netlist.Name, splitLayer, geom.NMPerMicron)
	die := d.Placement.Die
	fmt.Fprintf(bw, "DIEAREA ( %d %d ) ( %d %d ) ;\n", die.Lo.X, die.Lo.Y, die.Hi.X, die.Hi.Y)
	fmt.Fprintf(bw, "COMPONENTS %d ;\n", len(d.Placement.Cells))
	for gid, c := range d.Placement.Cells {
		fmt.Fprintf(bw, "- %s %s + PLACED ( %d %d ) N ;\n",
			defName(d.Netlist.Gates[gid].Name), c.Master.Name, c.Loc.X, c.Loc.Y)
	}
	fmt.Fprintf(bw, "END COMPONENTS\nNETS %d ;\n", len(sv.ByRoute))
	ids := make([]int, 0, len(sv.ByRoute))
	for id := range sv.ByRoute {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	end := d.Grid.LayerEnd(splitLayer) // FEOL nodes index below end
	for _, id := range ids {
		rn := d.Router.Net(id)
		fmt.Fprintf(bw, "- %s\n", entityName(d, id))
		for _, e := range rn.Edges {
			if e.A < end && e.B < end {
				writeRouted(bw, d.Grid, e)
			}
		}
		fmt.Fprintf(bw, " ;\n")
	}
	fmt.Fprintf(bw, "END NETS\nEND DESIGN\n")
	return bw.Flush()
}

// WriteRT emits routed-segment records (.rt): one line per wire segment,
// "net x1 y1 x2 y2 layer", in nm coordinates — the flat format
// routing-centric attack tooling ingests.
func WriteRT(w io.Writer, d *layout.Design) error {
	bw := bufio.NewWriter(w)
	for _, id := range d.Router.SortedNetIDs() {
		rn := d.Router.Net(id)
		name := entityName(d, id)
		for _, e := range rn.Edges {
			if d.Grid.IsVia(e) {
				continue
			}
			a, b := d.Grid.Ends(e)
			pa, pb := d.Grid.CenterOf(a), d.Grid.CenterOf(b)
			fmt.Fprintf(bw, "%s %d %d %d %d %d\n", name, pa.X, pa.Y, pb.X, pb.Y, a.Z)
		}
	}
	return bw.Flush()
}

// WriteOut emits vpin records (.out): one line per vpin after splitting,
// "net x y layer dir frag".
func WriteOut(w io.Writer, d *layout.Design, splitLayer int) error {
	sv, err := d.Split(splitLayer)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	for _, vp := range sv.VPins {
		fmt.Fprintf(bw, "%s %d %d %d %s %d\n",
			entityName(d, vp.RouteID), vp.Pt.X, vp.Pt.Y, splitLayer, vp.Dir, vp.Frag)
	}
	return bw.Flush()
}
