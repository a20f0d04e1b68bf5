package report

import (
	"fmt"
	"strings"
	"testing"
)

// tinyCfg keeps report tests fast: two small ISCAS circuits, heavily
// scaled superblue stand-ins, shallow simulation.
func tinyCfg() Config {
	return Config{
		Seed:           1,
		SuperblueScale: 1500,
		ISCASSubset:    []string{"c432"},
		PatternWords:   16,
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:   "T",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"x", "y"}, {"longer", "z"}},
		Notes:   []string{"n1"},
	}
	out := tab.Render()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "longer") || !strings.Contains(out, "note: n1") {
		t.Fatalf("render broken:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 5 {
		t.Fatal("too few lines")
	}
}

func TestSecurityStudyVariants(t *testing.T) {
	cfg := tinyCfg()
	for _, v := range []string{"original", "placement-perturbation", "g-color", "pin-swapping"} {
		rows, err := SecurityStudy(v, cfg)
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if len(rows) != 1 || rows[0].Benchmark != "c432" || rows[0].Variant != v {
			t.Fatalf("%s: rows=%+v", v, rows)
		}
		if rows[0].CCR < 0 || rows[0].CCR > 100 {
			t.Fatalf("%s: CCR out of range: %v", v, rows[0].CCR)
		}
	}
	if _, err := SecurityStudy("bogus", cfg); err == nil {
		t.Fatal("bogus variant accepted")
	}
}

func TestProposedVariantNearZeroCCR(t *testing.T) {
	rows, err := SecurityStudy("proposed", tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Frags == 0 {
		t.Fatal("nothing attacked")
	}
	if r.OER < 90 {
		t.Fatalf("proposed OER=%.1f, want ≈100", r.OER)
	}
	// Chance-level hits only (documented in EXPERIMENTS.md).
	if r.CCR > 25 {
		t.Fatalf("proposed CCR=%.1f too high", r.CCR)
	}
}

func TestTable1SmokeShape(t *testing.T) {
	if testing.Short() {
		t.Skip("superblue bundles in -short mode")
	}
	cfg := tinyCfg()
	tab, err := Table1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 5 designs x 3 variants.
	if len(tab.Rows) != 15 {
		t.Fatalf("rows = %d, want 15", len(tab.Rows))
	}
	// Proposed mean distance must exceed Original's for each design
	// (the paper's order-of-magnitude claim, scale-independent).
	for i := 0; i < len(tab.Rows); i += 3 {
		orig := tab.Rows[i]
		prop := tab.Rows[i+2]
		if orig[1] != "Original" || prop[1] != "Proposed" {
			t.Fatalf("row order wrong: %v / %v", orig, prop)
		}
		var om, pm float64
		if _, err := sscan(orig[2], &om); err != nil {
			t.Fatal(err)
		}
		if _, err := sscan(prop[2], &pm); err != nil {
			t.Fatal(err)
		}
		if pm <= om {
			t.Fatalf("%s: proposed mean %.2f <= original %.2f", orig[0], pm, om)
		}
	}
}

func sscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}

func TestAblationSwapBudgetShape(t *testing.T) {
	tab, err := AblationSwapBudget("c432", []int{2, 6}, tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

// TestTable3ELSShape asserts the E[LS] half of Table 3's stated shape at
// superblue scale 800: on all five designs, Proposed has at least the
// E[LS] of Original and Lifted in every bounding box. The vpin half does
// not hold at this scale (superblue10 and superblue12 miss by a few
// vpins), so the test asserts only that the notes name each row that
// breaks it.
func TestTable3ELSShape(t *testing.T) {
	if testing.Short() {
		t.Skip("superblue bundles in -short mode")
	}
	tab, breaks, err := table3(Config{Seed: 1, SuperblueScale: 800})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 15 {
		t.Fatalf("%d rows, want 3 layouts for each of 5 designs", len(tab.Rows))
	}
	if len(breaks.ELS) != 0 {
		t.Fatalf("E[LS] shape breaks: %v", breaks.ELS)
	}
	notes := strings.Join(tab.Notes, "\n")
	for _, b := range breaks.VPins {
		if !strings.Contains(notes, b) {
			t.Fatalf("notes do not name the vpin break %q:\n%s", b, notes)
		}
	}
	if !strings.Contains(notes, "shape check, E[LS]: holds on every design") {
		t.Fatalf("notes do not report the E[LS] check:\n%s", notes)
	}
	t.Logf("vpin breaks: %v", breaks.VPins)
}
