package engine

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"splitmfg/internal/attack/proximity"
	"splitmfg/internal/bench"
	"splitmfg/internal/cell"
	"splitmfg/internal/defense/correction"
	"splitmfg/internal/layout"
	"splitmfg/internal/metrics"
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
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
	if len(names) < 5 {
		t.Fatalf("registry has %d engines, want >= 5: %v", len(names), names)
	}
	for _, want := range []string{"proximity", "crouting", "random", "greedy", "ensemble"} {
		if _, ok := Lookup(want); !ok {
			t.Fatalf("engine %q not registered (have %v)", want, names)
		}
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

// TestEnsembleSingleMemberEqualsMember: a one-member panel must reproduce
// that member's standalone assignment exactly (vote of one; the scope
// seed passes through unchanged).
func TestEnsembleSingleMemberEqualsMember(t *testing.T) {
	d, sv := testSplit(t)
	ctx := context.Background()
	for _, member := range []string{"greedy", "random"} {
		solo := NewEnsemble("solo", member)
		got, err := solo.Attack(ctx, d, sv, Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		eng, _ := Lookup(member)
		want, err := eng.Attack(ctx, d, sv, Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Assignment, want.Assignment) {
			t.Fatalf("one-member ensemble of %q differs from the member itself", member)
		}
		if got.Metrics["unanimous"] != 1 {
			t.Fatalf("one-member ensemble not unanimous: %v", got.Metrics)
		}
	}
}

// countingEngine counts Attack invocations, for memo tests. Its output is
// deterministic (every sink to the first candidate driver, no metrics) so
// registering it does not disturb the registry-wide determinism tests.
type countingEngine struct {
	calls *int
}

func (countingEngine) Name() string { return "counting" }

func (c countingEngine) Attack(ctx context.Context, d *layout.Design, sv *layout.SplitView, opt Options) (Result, error) {
	*c.calls++
	res := Result{Assignment: metrics.Assignment{}}
	drivers := proximity.CandidateDrivers(sv)
	if len(drivers) == 0 {
		return res, nil
	}
	for _, sfid := range sv.SinkFrags() {
		res.Assignment[sfid] = drivers[0]
	}
	return res, nil
}

// TestMemoDeduplicates: Run with a memo invokes the engine once per
// (name, seed) within the scope; a different seed is a different entry.
func TestMemoDeduplicates(t *testing.T) {
	d, sv := testSplit(t)
	calls := 0
	eng := countingEngine{calls: &calls}
	memo := NewMemo()
	ctx := context.Background()
	var first Result
	for i := 0; i < 3; i++ {
		res, err := Run(ctx, eng, d, sv, Options{Seed: 1, Memo: memo})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res
		} else if !reflect.DeepEqual(res, first) {
			t.Fatalf("run %d returned a different result than the cached one", i)
		}
	}
	if calls != 1 {
		t.Fatalf("engine attacked %d times under one memo, want 1", calls)
	}
	if _, err := Run(ctx, eng, d, sv, Options{Seed: 2, Memo: memo}); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("different seed should miss the memo: %d calls, want 2", calls)
	}
}

// TestEnsembleReusesMemoizedMembers: with a shared memo, running a member
// standalone and then an ensemble containing it must not re-attack the
// member — the deduplication EvaluateSecurity relies on when an ensemble
// is requested alongside its own members.
func TestEnsembleReusesMemoizedMembers(t *testing.T) {
	d, sv := testSplit(t)
	ctx := context.Background()
	calls := 0
	Register(countingEngine{calls: &calls})
	memo := NewMemo()
	counting, _ := Lookup("counting")
	standalone, err := Run(ctx, counting, d, sv, Options{Seed: 5, Memo: memo})
	if err != nil {
		t.Fatal(err)
	}
	solo := NewEnsemble("solo", "counting")
	viaEnsemble, err := solo.Attack(ctx, d, sv, Options{Seed: 5, Memo: memo})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("member attacked %d times, want 1 (ensemble must reuse the memoized result)", calls)
	}
	if !reflect.DeepEqual(standalone.Assignment, viaEnsemble.Assignment) {
		t.Fatal("memoized member result differs from standalone result")
	}
}

func TestEnsembleUnknownMember(t *testing.T) {
	d, sv := testSplit(t)
	bad := NewEnsemble("bad", "nope")
	if _, err := bad.Attack(context.Background(), d, sv, Options{}); err == nil {
		t.Fatal("ensemble with unknown member succeeded")
	}
}

func TestDeriveSeedIndependence(t *testing.T) {
	seen := map[int64]string{}
	for _, label := range []string{"proximity", "greedy", "random", "ensemble", "crouting"} {
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
