package flow

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"splitmfg/internal/bench"
	"splitmfg/internal/cell"
	"splitmfg/internal/defense/baselines"
)

func matrixFixture(t *testing.T) (*cell.Library, Bench, Options) {
	t.Helper()
	nl, err := bench.ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	return cell.NewNangate45Like(), Bench{Name: "c432", Netlist: nl, Scale: 1, LiftLayer: 6, UtilPercent: 70},
		Options{
			Defenses:     []string{"randomize-correction", "naive-lifted", "pin-swapping"},
			Attackers:    []string{"proximity", "random"},
			SplitLayers:  []int{3, 4},
			Seed:         7,
			PatternWords: 16,
		}
}

func marshalMatrix(t *testing.T, m MatrixResult, opt Options) []byte {
	t.Helper()
	b, err := json.MarshalIndent(m.Report("c432", opt), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestEvaluateMatrixSerialParallelIdentical(t *testing.T) {
	lib, b, opt := matrixFixture(t)

	opt.Parallelism = 1
	serial, err := EvaluateMatrix(context.Background(), lib, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	sb := marshalMatrix(t, serial, opt)
	// The baseline and three rows are four pool tasks: at 2 and 3 rows
	// queue behind the baseline, at 4 all of them run at once.
	for _, p := range []int{2, 3, 4} {
		opt.Parallelism = p
		parallel, err := EvaluateMatrix(context.Background(), lib, b, opt)
		if err != nil {
			t.Fatal(err)
		}
		if pb := marshalMatrix(t, parallel, opt); !bytes.Equal(sb, pb) {
			t.Fatalf("serial and parallelism-%d matrix reports differ:\n%s\n----\n%s", p, sb, pb)
		}
	}

	// Shape: one row per requested defense, one cell per requested
	// attacker, in request order.
	if len(serial.Rows) != len(opt.Defenses) {
		t.Fatalf("got %d rows, want %d", len(serial.Rows), len(opt.Defenses))
	}
	for i, row := range serial.Rows {
		if row.Defense != opt.Defenses[i] {
			t.Fatalf("row %d is %q, want %q", i, row.Defense, opt.Defenses[i])
		}
		cells := row.Security.PerAttacker
		if len(cells) != len(opt.Attackers) {
			t.Fatalf("row %q has %d cells, want %d", row.Defense, len(cells), len(opt.Attackers))
		}
		for j, c := range cells {
			if c.Attacker != opt.Attackers[j] {
				t.Fatalf("row %q cell %d is %q, want %q", row.Defense, j, c.Attacker, opt.Attackers[j])
			}
			if !c.Scored {
				t.Fatalf("row %q cell %q unscored", row.Defense, c.Attacker)
			}
		}
	}
	// The proposed scheme must beat the unprotected-ish pin-swapping row
	// against the proximity attack (the paper's whole argument); with a
	// tiny pattern budget we only require it not be *worse*.
	rc := serial.Rows[0].Security.PerAttacker[0].CCR
	ps := serial.Rows[2].Security.PerAttacker[0].CCR
	if rc > ps+0.15 {
		t.Errorf("randomize-correction CCR %.2f not below pin-swapping CCR %.2f", rc, ps)
	}
}

func TestEvaluateMatrixDuplicateDefenseMemo(t *testing.T) {
	lib, b, opt := matrixFixture(t)
	opt.Defenses = []string{"pin-swapping", "pin-swapping"}
	opt.Attackers = []string{"random"}
	res, err := EvaluateMatrix(context.Background(), lib, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(res.Rows))
	}
	first, _ := json.Marshal(res.Report("c432", opt).Rows[0])
	second, _ := json.Marshal(res.Report("c432", opt).Rows[1])
	if !bytes.Equal(first, second) {
		t.Fatalf("duplicate defense rows differ:\n%s\n%s", first, second)
	}
}

func TestEvaluateMatrixUnknownNames(t *testing.T) {
	lib, b, opt := matrixFixture(t)
	opt.Defenses = []string{"no-such-defense"}
	if _, err := EvaluateMatrix(context.Background(), lib, b, opt); err == nil ||
		!strings.Contains(err.Error(), "no-such-defense") {
		t.Fatalf("unknown defense not rejected: %v", err)
	}
	_, _, opt = matrixFixture(t)
	opt.Attackers = []string{"no-such-attacker"}
	if _, err := EvaluateMatrix(context.Background(), lib, b, opt); err == nil ||
		!strings.Contains(err.Error(), "no-such-attacker") {
		t.Fatalf("unknown attacker not rejected: %v", err)
	}
}

// TestEvaluateMatrixProgressSerialized appends to a plain slice from the
// progress hook — the documented contract says callbacks are serialized,
// so this must be safe even with concurrent defense rows and layer
// attacks (the race detector enforces it in the CI race job). The
// baseline emits one StageSuiteBaseline event and every row one
// StageSuiteCell event.
func TestEvaluateMatrixProgressSerialized(t *testing.T) {
	lib, b, opt := matrixFixture(t)
	opt.Parallelism = 4
	var events []Event
	opt.Progress = func(ev Event) { events = append(events, ev) }
	if _, err := EvaluateMatrix(context.Background(), lib, b, opt); err != nil {
		t.Fatal(err)
	}
	baselines, defenses := 0, 0
	for _, ev := range events {
		switch ev.Stage {
		case StageSuiteBaseline:
			baselines++
		case StageSuiteCell:
			defenses++
		}
	}
	if baselines != 1 || defenses != len(opt.Defenses) {
		t.Fatalf("got %d StageSuiteBaseline and %d StageSuiteCell events, want 1 and %d",
			baselines, defenses, len(opt.Defenses))
	}
}

func TestEvaluateMatrixCancellation(t *testing.T) {
	lib, b, opt := matrixFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EvaluateMatrix(ctx, lib, b, opt); err == nil {
		t.Fatal("cancelled matrix evaluation returned no error")
	}
}

func TestSenguptaReducesAttackCCR(t *testing.T) {
	// The defense's whole point: after G-Color relocation the proximity
	// attack must do worse than on a near-untouched layout. (Relocated
	// from the baselines package when the defense registry made that
	// import direction a cycle.)
	nl, err := bench.ISCAS85("c432")
	if err != nil {
		t.Fatal(err)
	}
	lib := cell.NewNangate45Like()
	orig, err := baselines.PlacementPerturbation(nl, lib, baselines.Options{Seed: 3, Fraction: 0.0001})
	if err != nil {
		t.Fatal(err)
	}
	prot, err := baselines.Sengupta(nl, lib, baselines.GColor, baselines.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	so, err := EvaluateSecurity(context.Background(), orig, nl, nil, Options{SplitLayers: []int{3, 4}, Seed: 3, PatternWords: 16})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := EvaluateSecurity(context.Background(), prot, nl, nil, Options{SplitLayers: []int{3, 4}, Seed: 3, PatternWords: 16})
	if err != nil {
		t.Fatal(err)
	}
	if so.Protected > 0 && sp.Protected > 0 && sp.CCR > so.CCR+0.1 {
		t.Fatalf("G-Color increased CCR: %.2f -> %.2f", so.CCR, sp.CCR)
	}
}
