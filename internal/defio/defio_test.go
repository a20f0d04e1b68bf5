package defio

import (
	"bytes"
	"strings"
	"testing"

	"splitmfg/internal/bench"
	"splitmfg/internal/cell"
	"splitmfg/internal/defense/correction"
	"splitmfg/internal/layout"
)

func protectedDesign(t *testing.T) *layout.Design {
	t.Helper()
	nl, err := bench.ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	lib := cell.NewNangate45Like()
	d, err := correction.BuildOriginal(nl, lib, correction.Options{UtilPercent: 70, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestWriteParseRoundTrip(t *testing.T) {
	d := protectedDesign(t)
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	f, err := Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if f.Design != d.Netlist.Name {
		t.Fatalf("design name %q", f.Design)
	}
	if len(f.Components) != d.Netlist.NumGates() {
		t.Fatalf("components %d != gates %d", len(f.Components), d.Netlist.NumGates())
	}
	if len(f.Pins) != d.Netlist.NumPIs()+d.Netlist.NumPOs() {
		t.Fatalf("pins %d", len(f.Pins))
	}
	routed := d.Router.NumNets()
	if len(f.Nets) != routed {
		t.Fatalf("nets %d != routed %d", len(f.Nets), routed)
	}
	if f.Die != d.Placement.Die {
		t.Fatalf("die %v != %v", f.Die, d.Placement.Die)
	}
	// Every parsed net must carry geometry.
	withGeom := 0
	for _, n := range f.Nets {
		if len(n.Segments) > 0 {
			withGeom++
		}
	}
	if withGeom < routed/2 {
		t.Fatalf("only %d/%d nets have geometry", withGeom, routed)
	}
}

func TestSplitDropsBEOL(t *testing.T) {
	d := protectedDesign(t)
	var full, feol bytes.Buffer
	if err := Write(&full, d); err != nil {
		t.Fatal(err)
	}
	if err := WriteSplit(&feol, d, 3); err != nil {
		t.Fatal(err)
	}
	if feol.Len() >= full.Len() {
		t.Fatal("FEOL DEF not smaller than full DEF")
	}
	// No references to layers above M3 in the FEOL file.
	for _, l := range []string{"M4 ", "M5 ", "M6 ", "M7 ", "M8 ", "M9 ", "M10 "} {
		if strings.Contains(feol.String(), "+ ROUTED "+l) {
			t.Fatalf("FEOL DEF contains %s wiring", strings.TrimSpace(l))
		}
	}
	pf, err := Parse(bytes.NewReader(feol.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range pf.Nets {
		for _, s := range n.Segments {
			if s.Layer > 3 { // a via at M3 reaches M4
				t.Fatalf("net %s has BEOL segment %+v", n.Name, s)
			}
		}
	}
}

func TestWriteRTFormat(t *testing.T) {
	d := protectedDesign(t)
	var buf bytes.Buffer
	if err := WriteRT(&buf, d); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 100 {
		t.Fatalf("suspiciously few rt lines: %d", len(lines))
	}
	for _, line := range lines[:10] {
		if len(strings.Fields(line)) != 6 {
			t.Fatalf("bad rt line %q", line)
		}
	}
}

func TestWriteOutMatchesSplit(t *testing.T) {
	d := protectedDesign(t)
	sv, err := d.Split(3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteOut(&buf, d, 3); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if buf.Len() == 0 {
		if len(sv.VPins) != 0 {
			t.Fatal("out file empty but vpins exist")
		}
		return
	}
	if len(lines) != len(sv.VPins) {
		t.Fatalf("out lines %d != vpins %d", len(lines), len(sv.VPins))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"DIEAREA ( 0 0 ) ( 10 ) ;",
		"UNITS DISTANCE MICRONS xyz ;",
		// Truncated headers must error, not index out of range (found by
		// FuzzReadDEF).
		"UNITS DISTANCE\n",
	}
	for _, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestDefNameSanitization(t *testing.T) {
	if defName("a$b/c") != "a_b_c" {
		t.Fatalf("got %q", defName("a$b/c"))
	}
	if defName("") != "_" {
		t.Fatal("empty name must map to _")
	}
}
