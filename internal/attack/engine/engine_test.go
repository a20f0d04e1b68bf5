package engine

import (
	"context"
	"reflect"
	"testing"

	"splitmfg/internal/bench"
	"splitmfg/internal/cell"
	"splitmfg/internal/defense/correction"
	"splitmfg/internal/layout"
)

// testSplit builds a c880 baseline layout and splits it at M4, which has a
// non-trivial attack surface.
func testSplit(t *testing.T) (*layout.Design, *layout.SplitView) {
	t.Helper()
	nl, err := bench.ISCAS85("c880")
	if err != nil {
		t.Fatal(err)
	}
	d, err := correction.BuildOriginal(nl, cell.NewNangate45Like(),
		correction.Options{LiftLayer: 6, UtilPercent: 70, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sv, err := d.Split(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(sv.SinkFrags()) == 0 {
		t.Fatal("M4 split has no open sink fragments to attack")
	}
	return d, sv
}

func TestRegistryNames(t *testing.T) {
	// The exact set, so the package doc, the README attacker table and
	// splitmfg.Attackers' doc cannot drift from the registry.
	want := []string{"crouting", "greedy", "proximity", "random"}
	if names := Names(); !reflect.DeepEqual(names, want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup of unregistered name succeeded")
	}
	if _, err := Resolve([]string{"proximity", "nope"}); err == nil {
		t.Fatal("Resolve with unknown name succeeded")
	}
}

// TestEnginesDeterministicAndValid: every assignment-producing engine must
// return the same assignment for the same seed, and every assigned driver
// must be a driver fragment of the view.
func TestEnginesDeterministicAndValid(t *testing.T) {
	d, sv := testSplit(t)
	nl := d.Netlist
	isDriver := map[int]bool{}
	for _, fid := range sv.DriverFrags() {
		isDriver[fid] = true
	}
	ctx := context.Background()
	for _, name := range Names() {
		eng, _ := Lookup(name)
		a, err := eng.Attack(ctx, d, sv, Options{Seed: 42, Ref: nl})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := eng.Attack(ctx, d, sv, Options{Seed: 42, Ref: nl})
		if err != nil {
			t.Fatalf("%s (second run): %v", name, err)
		}
		if !reflect.DeepEqual(a.Assignment, b.Assignment) {
			t.Fatalf("%s: assignment differs across runs at the same seed", name)
		}
		if !reflect.DeepEqual(a.Metrics, b.Metrics) {
			t.Fatalf("%s: metrics differ across runs at the same seed:\n%v\nvs\n%v", name, a.Metrics, b.Metrics)
		}
		if name == "crouting" {
			if a.Assignment != nil {
				t.Fatalf("crouting proposed an assignment; it is metrics-only")
			}
			if len(a.Metrics) == 0 {
				t.Fatal("crouting returned no metrics")
			}
			continue
		}
		if len(a.Assignment) == 0 {
			t.Fatalf("%s assigned nothing over %d sinks", name, len(sv.SinkFrags()))
		}
		for sink, drv := range a.Assignment {
			if drv >= 0 && !isDriver[drv] {
				t.Fatalf("%s assigned sink %d to non-driver fragment %d", name, sink, drv)
			}
		}
	}
}

// TestRandomSeedSensitivity: the random baseline must actually use the
// seed — two different seeds give different assignments on a non-trivial
// surface.
func TestRandomSeedSensitivity(t *testing.T) {
	d, sv := testSplit(t)
	eng, _ := Lookup("random")
	a, err := eng.Attack(context.Background(), d, sv, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Attack(context.Background(), d, sv, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Assignment, b.Assignment) {
		t.Fatal("random assignments identical across different seeds")
	}
}

func TestDeriveSeedIndependence(t *testing.T) {
	seen := map[int64]string{}
	for _, label := range []string{"proximity", "greedy", "random", "crouting"} {
		s := DeriveSeed(1, label)
		if prev, dup := seen[s]; dup {
			t.Fatalf("DeriveSeed collision between %q and %q", label, prev)
		}
		seen[s] = label
	}
	if DeriveSeed(1, "x") == DeriveSeed(2, "x") {
		t.Fatal("DeriveSeed ignores the seed")
	}
}
