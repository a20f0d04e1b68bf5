package flow

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"splitmfg/internal/bench"
	"splitmfg/internal/cell"
	defengine "splitmfg/internal/defense/engine"
	"splitmfg/internal/netlist"
)

func suiteFixture(t *testing.T, names ...string) (*cell.Library, []Bench, Options) {
	t.Helper()
	opt := Options{
		Defenses:     []string{"randomize-correction", "naive-lifted"},
		Attackers:    []string{"proximity", "random"},
		SplitLayers:  []int{3, 4},
		Seed:         7,
		PatternWords: 16,
		Replicates:   2,
	}
	var benches []Bench
	for _, name := range names {
		nl, err := bench.ISCAS85(name)
		if err != nil {
			t.Fatal(err)
		}
		benches = append(benches, Bench{
			Name: name, Netlist: nl, Scale: 1, LiftLayer: 6, UtilPercent: 70,
		})
	}
	return cell.NewNangate45Like(), benches, opt
}

func marshalSuite(t *testing.T, s SuiteResult, opt Options) []byte {
	t.Helper()
	b, err := json.MarshalIndent(s.Report(opt), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestEvaluateSuiteSerialParallelIdentical(t *testing.T) {
	lib, benches, opt := suiteFixture(t, "c432", "c880")

	opt.Parallelism = 1
	serial, err := EvaluateSuite(context.Background(), lib, benches, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Parallelism = 8
	parallel, err := EvaluateSuite(context.Background(), lib, benches, opt)
	if err != nil {
		t.Fatal(err)
	}
	sb := marshalSuite(t, serial, opt)
	pb := marshalSuite(t, parallel, opt)
	if !bytes.Equal(sb, pb) {
		t.Fatalf("serial and parallel suite reports differ:\n%s\n----\n%s", sb, pb)
	}

	// Shape: one section per benchmark, one row per defense, one cell per
	// attacker, all in request order.
	if len(serial.Benches) != 2 || len(serial.Aggregate) != len(opt.Defenses) {
		t.Fatalf("suite shape: %d benches, %d aggregate rows", len(serial.Benches), len(serial.Aggregate))
	}
	for b, br := range serial.Benches {
		if br.Bench != benches[b].Name {
			t.Fatalf("bench %d = %q, want %q", b, br.Bench, benches[b].Name)
		}
		if len(br.Rows) != len(opt.Defenses) {
			t.Fatalf("bench %q has %d rows, want %d", br.Bench, len(br.Rows), len(opt.Defenses))
		}
		for d, row := range br.Rows {
			if row.Defense != opt.Defenses[d] || len(row.Cells) != len(opt.Attackers) {
				t.Fatalf("bench %q row %d: defense %q with %d cells", br.Bench, d, row.Defense, len(row.Cells))
			}
		}
	}
}

func TestEvaluateSuiteBaselineCachedAcrossCells(t *testing.T) {
	lib, benches, opt := suiteFixture(t, "c432", "c880")
	opt.Parallelism = 4
	res, err := EvaluateSuite(context.Background(), lib, benches, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Every (defense, replicate) cell of a benchmark re-requests the
	// benchmark's unprotected baseline; only the scheduled baseline job may
	// miss. With all-distinct cells: misses = B baselines + B*D*R cells,
	// hits = B*D*R baseline re-requests.
	B, D, R := len(benches), len(opt.Defenses), opt.Replicates
	wantMisses := B + B*D*R
	wantHits := B * D * R
	if res.Cache.Misses != wantMisses || res.Cache.Hits != wantHits {
		t.Fatalf("cache stats = %+v, want %d misses / %d hits", res.Cache, wantMisses, wantHits)
	}
}

func TestEvaluateSuiteDuplicateDefenseServedFromCache(t *testing.T) {
	lib, benches, opt := suiteFixture(t, "c432")
	opt.Defenses = []string{"randomize-correction", "randomize-correction"}
	res, err := EvaluateSuite(context.Background(), lib, benches, opt)
	if err != nil {
		t.Fatal(err)
	}
	// The duplicate defense's cells share cache keys with the first
	// occurrence: per (benchmark, replicate) one cell miss and one hit, on
	// top of the baseline sharing.
	B, D, R := len(benches), 2, opt.Replicates
	wantMisses := B + B*R
	wantHits := B*D*R + B*R
	if res.Cache.Misses != wantMisses || res.Cache.Hits != wantHits {
		t.Fatalf("cache stats = %+v, want %d misses / %d hits", res.Cache, wantMisses, wantHits)
	}
	// Both rows must carry identical numbers — they are the same cells.
	for _, br := range res.Benches {
		a, b := br.Rows[0], br.Rows[1]
		if a.AreaOH != b.AreaOH || len(a.Cells) != len(b.Cells) {
			t.Fatal("duplicate defense rows diverged")
		}
		for i := range a.Cells {
			if a.Cells[i] != b.Cells[i] {
				t.Fatalf("duplicate defense cell %d diverged: %+v vs %+v", i, a.Cells[i], b.Cells[i])
			}
		}
	}
}

func TestEvaluateSuiteSingleReplicateMatchesMatrix(t *testing.T) {
	// Replicate 0 runs at the master seed, so a one-replicate suite row
	// must reproduce the EvaluateMatrix row for the same configuration.
	lib, benches, opt := suiteFixture(t, "c432")
	opt.Replicates = 1
	suite, err := EvaluateSuite(context.Background(), lib, benches, opt)
	if err != nil {
		t.Fatal(err)
	}
	matrix, err := EvaluateMatrix(context.Background(), lib, benches[0], opt)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := suite.Benches[0].BasePPA, matrix.BasePPA; got != want {
		t.Fatalf("suite base PPA %+v != matrix base PPA %+v", got, want)
	}
	for d, row := range suite.Benches[0].Rows {
		mrow := matrix.Rows[d]
		if row.Swaps.Mean != float64(mrow.Swaps) || row.Swaps.Std != 0 {
			t.Fatalf("row %d swaps %+v != matrix %d", d, row.Swaps, mrow.Swaps)
		}
		if row.AreaOH.Mean != mrow.AreaOH || row.PowerOH.Mean != mrow.PowerOH || row.DelayOH.Mean != mrow.DelayOH {
			t.Fatalf("row %d overheads diverged from matrix", d)
		}
		for a, c := range row.Cells {
			ar := mrow.Security.PerAttacker[a]
			if c.CCR.Mean != ar.CCR || c.OER.Mean != ar.OER || c.HD.Mean != ar.HD || c.Scored != ar.Scored {
				t.Fatalf("row %d cell %d diverged from matrix: %+v vs %+v", d, a, c, ar)
			}
		}
	}
}

// startProbe closes started when its first build begins, then builds
// pin-swapping.
type startProbe struct {
	started chan struct{}
	once    sync.Once
}

func (*startProbe) Name() string { return "test-start-probe" }

func (p *startProbe) Protect(ctx context.Context, nl *netlist.Netlist, lib *cell.Library, opt defengine.Options) (*defengine.Protected, error) {
	p.once.Do(func() { close(p.started) })
	def, _ := defengine.Lookup("pin-swapping")
	return def.Protect(ctx, nl, lib, opt)
}

// TestSuiteCellDoesNotWaitForBaseline: with a worker each, a cell builds
// while its benchmark's baseline is still building. The progress hook
// holds the StageSuiteBaseline event, which the baseline emits inside its
// build, until the cell's defense has started; a cell that waited for the
// baseline would never start, and the hook gives up after 10 s.
func TestSuiteCellDoesNotWaitForBaseline(t *testing.T) {
	for _, entry := range []string{"suite", "matrix"} {
		t.Run(entry, func(t *testing.T) {
			probe := &startProbe{started: make(chan struct{})}
			defengine.Register(probe)
			lib, benches, opt := suiteFixture(t, "c432")
			opt.Defenses = []string{probe.Name()}
			opt.Attackers = []string{"random"}
			opt.Replicates = 1
			opt.Parallelism = 2
			waited := false
			opt.Progress = func(ev Event) {
				if ev.Stage != StageSuiteBaseline {
					return
				}
				select {
				case <-probe.started:
				case <-time.After(10 * time.Second):
					waited = true
				}
			}
			var err error
			if entry == "suite" {
				_, err = EvaluateSuite(context.Background(), lib, benches, opt)
			} else {
				_, err = EvaluateMatrix(context.Background(), lib, benches[0], opt)
			}
			if err != nil {
				t.Fatal(err)
			}
			if waited {
				t.Fatal("the cell's defense did not start while its baseline was building")
			}
		})
	}
}

func TestEvaluateSuiteReplicatesVary(t *testing.T) {
	// Replicates must actually draw different seed streams: with two
	// replicates the randomized defense's swap count or security numbers
	// should spread. (A zero std across the board would mean the replicate
	// seeds collapsed to one stream.)
	lib, benches, opt := suiteFixture(t, "c432")
	opt.Defenses = []string{"randomize-correction"}
	res, err := EvaluateSuite(context.Background(), lib, benches, opt)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Benches[0].Rows[0]
	spread := row.Swaps.Std + row.AreaOH.Std + row.PowerOH.Std
	for _, c := range row.Cells {
		spread += c.CCR.Std + c.OER.Std + c.HD.Std
	}
	if spread == 0 {
		t.Fatal("two replicates produced identical rows — replicate seed derivation is not varying")
	}
}

func TestEvaluateSuiteProgressEvents(t *testing.T) {
	lib, benches, opt := suiteFixture(t, "c432", "c880")
	var mu sync.Mutex
	baselines := map[string]int{}
	cells := 0
	opt.Parallelism = 4
	opt.Progress = func(ev Event) {
		mu.Lock()
		defer mu.Unlock()
		switch ev.Stage {
		case StageSuiteBaseline:
			baselines[ev.Bench]++
		case StageSuiteCell:
			cells++
		}
	}
	if _, err := EvaluateSuite(context.Background(), lib, benches, opt); err != nil {
		t.Fatal(err)
	}
	for _, b := range benches {
		if baselines[b.Name] != 1 {
			t.Fatalf("benchmark %q emitted %d baseline events, want 1", b.Name, baselines[b.Name])
		}
	}
	if want := len(benches) * len(opt.Defenses) * opt.Replicates; cells != want {
		t.Fatalf("saw %d suite-cell events, want %d", cells, want)
	}
}

func TestEvaluateSuiteValidation(t *testing.T) {
	lib, benches, opt := suiteFixture(t, "c432")
	if _, err := EvaluateSuite(context.Background(), lib, nil, opt); err == nil {
		t.Fatal("empty suite did not error")
	}
	bad := opt
	bad.Attackers = []string{"no-such-engine"}
	if _, err := EvaluateSuite(context.Background(), lib, benches, bad); err == nil {
		t.Fatal("unknown attacker did not error")
	}
	bad = opt
	bad.Defenses = []string{"no-such-defense"}
	if _, err := EvaluateSuite(context.Background(), lib, benches, bad); err == nil {
		t.Fatal("unknown defense did not error")
	}
}

func TestEvaluateSuiteCancellation(t *testing.T) {
	lib, benches, opt := suiteFixture(t, "c432")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EvaluateSuite(ctx, lib, benches, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled suite returned %v, want context.Canceled", err)
	}
}

// storeEntries counts the result-store entry files at the top of dir
// (quarantine subdir and temp files excluded) — each one is one
// checkpointed baseline or cell.
func storeEntries(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			n++
		}
	}
	return n
}

// TestEvaluateSuiteResumesFromCacheDir is the crash-resume contract: a
// suite run killed mid-flight and rerun with the same cache dir produces
// a byte-identical report while recomputing only the cells that had not
// completed — every checkpointed entry comes back as a disk hit.
func TestEvaluateSuiteResumesFromCacheDir(t *testing.T) {
	lib, benches, opt := suiteFixture(t, "c432", "c880")
	opt.Parallelism = 4

	// Reference: an uninterrupted, diskless run.
	ref, err := EvaluateSuite(context.Background(), lib, benches, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := marshalSuite(t, ref, opt)

	// Run 1: same suite against a cache dir, canceled after the second
	// completed cell — the simulated crash.
	opt.CacheDir = t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	cells := 0
	opt.Progress = func(ev Event) {
		if ev.Stage != StageSuiteCell {
			return
		}
		mu.Lock()
		cells++
		if cells == 2 {
			cancel()
		}
		mu.Unlock()
	}
	if _, err := EvaluateSuite(ctx, lib, benches, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	persisted := storeEntries(t, opt.CacheDir)
	B, D, R := len(benches), len(opt.Defenses), opt.Replicates
	distinct := B + B*D*R
	if persisted < 3 || persisted >= distinct {
		// At least the two observed cells and a baseline made it to disk;
		// the cancellation must also have left work to resume.
		t.Fatalf("interrupted run persisted %d entries, want 3..%d", persisted, distinct-1)
	}

	// Run 2: resumed. Identical bytes; disk hits are exactly the
	// checkpointed entries; only the rest recomputes.
	opt.Progress = nil
	res, err := EvaluateSuite(context.Background(), lib, benches, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := marshalSuite(t, res, opt); !bytes.Equal(got, want) {
		t.Fatalf("resumed report differs from the uninterrupted run:\n%s\n----\n%s", got, want)
	}
	if res.Cache.DiskHits != persisted || res.Cache.Misses != distinct-persisted {
		t.Fatalf("resumed stats = %+v, want %d disk hits / %d misses", res.Cache, persisted, distinct-persisted)
	}
	if res.Cache.Hits != B*D*R {
		t.Fatalf("resumed stats = %+v, want %d memory hits", res.Cache, B*D*R)
	}

	// Run 3: fully warm — nothing computes, bytes still identical.
	warm, err := EvaluateSuite(context.Background(), lib, benches, opt)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cache.DiskHits != distinct || warm.Cache.Misses != 0 {
		t.Fatalf("warm stats = %+v, want %d disk hits / 0 misses", warm.Cache, distinct)
	}
	if got := marshalSuite(t, warm, opt); !bytes.Equal(got, want) {
		t.Fatal("warm report differs from the uninterrupted run")
	}
}

// TestEvaluateSuiteCorruptEntryQuarantinedAndRecomputed: one truncated
// store file costs exactly one recompute — the entry is quarantined, the
// rest of the store is trusted, and the report is unchanged.
func TestEvaluateSuiteCorruptEntryQuarantinedAndRecomputed(t *testing.T) {
	lib, benches, opt := suiteFixture(t, "c432")
	opt.CacheDir = t.TempDir()
	first, err := EvaluateSuite(context.Background(), lib, benches, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := marshalSuite(t, first, opt)

	ents, err := os.ReadDir(opt.CacheDir)
	if err != nil {
		t.Fatal(err)
	}
	truncated := ""
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			truncated = filepath.Join(opt.CacheDir, e.Name())
			break
		}
	}
	if truncated == "" {
		t.Fatal("no store entries written")
	}
	if err := os.Truncate(truncated, 7); err != nil {
		t.Fatal(err)
	}

	res, err := EvaluateSuite(context.Background(), lib, benches, opt)
	if err != nil {
		t.Fatal(err)
	}
	B, D, R := len(benches), len(opt.Defenses), opt.Replicates
	distinct := B + B*D*R
	if res.Cache.DiskHits != distinct-1 || res.Cache.Misses != 1 {
		t.Fatalf("stats = %+v, want %d disk hits / 1 miss", res.Cache, distinct-1)
	}
	if got := marshalSuite(t, res, opt); !bytes.Equal(got, want) {
		t.Fatal("report changed after a corrupt-entry recompute")
	}
	q, err := os.ReadDir(filepath.Join(opt.CacheDir, "quarantine"))
	if err != nil || len(q) != 1 {
		t.Fatalf("quarantine holds %d files (%v), want 1", len(q), err)
	}
	// The recompute rewrote the slot: a third run is fully warm again.
	if storeEntries(t, opt.CacheDir) != distinct {
		t.Fatal("corrupt entry was not rewritten")
	}
}
