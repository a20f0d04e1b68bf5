package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"splitmfg"
)

// setupRepeats is how many times a run sets up before it measures; the
// reported set-up time is their median.
const setupRepeats = 31

// batchRun is what one untraced batch run measured.
type batchRun struct {
	setup     []float64 // seconds per set-up
	jobs      []float64 // seconds per job, submit to report checked
	wall      float64   // seconds from the first job submitted to the last report checked
	cpu       float64   // process CPU seconds over wall
	rssMiB    float64   // process peak resident set
	attempted int
	failed    int
	problems  []string
	report    any    // the first job's report
	data      []byte // its JSON
}

// designNames lists the request's designs in order.
func designNames(req splitmfg.JobRequest) []string {
	if len(req.Benchmarks) > 0 {
		return req.Benchmarks
	}
	return []string{req.Benchmark}
}

// loadDesigns loads every design of the request through the public API.
func loadDesigns(req splitmfg.JobRequest) ([]*splitmfg.Design, error) {
	var opts []splitmfg.BenchmarkOption
	if req.Scale > 0 {
		opts = append(opts, splitmfg.WithScale(req.Scale))
	}
	var ds []*splitmfg.Design
	for _, name := range designNames(req) {
		d, err := splitmfg.LoadBenchmark(name, opts...)
		if err != nil {
			return nil, err
		}
		ds = append(ds, d)
	}
	return ds, nil
}

// runBatchJob runs the request's suite or matrix job on loaded designs.
func runBatchJob(ctx context.Context, pipe *splitmfg.Pipeline, req splitmfg.JobRequest, ds []*splitmfg.Design) (any, error) {
	switch req.Kind {
	case splitmfg.JobSuite:
		return pipe.Suite(ctx, ds)
	case splitmfg.JobMatrix:
		return pipe.Matrix(ctx, ds[0])
	}
	return nil, fmt.Errorf("batch workloads run suite or matrix jobs, not %q", req.Kind)
}

// measureBatch sets the workload up setupRepeats times, then runs its job
// `rounds` times back to back, checking every report.
func measureBatch(ctx context.Context, w workload, seed int64, rounds int) (*batchRun, error) {
	req := w.request(seed)
	b := &batchRun{}
	var ds []*splitmfg.Design
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if ds, err = loadDesigns(req); err != nil {
			return nil, err
		}
		b.setup = append(b.setup, time.Since(t0).Seconds())
	}
	pipe := splitmfg.New(req.Options()...)
	if err := pipe.Validate(); err != nil {
		return nil, err
	}
	runtime.GC()
	cpu0 := cpuSeconds()
	start := time.Now()
	for r := 0; r < rounds; r++ {
		b.attempted++
		t0 := time.Now()
		rep, data, err := runChecked(ctx, pipe, req, ds)
		if err == nil && b.data != nil && !bytes.Equal(data, b.data) {
			err = fmt.Errorf("report differs from the first job's")
		}
		b.jobs = append(b.jobs, time.Since(t0).Seconds())
		if err != nil {
			b.failed++
			b.problems = append(b.problems, fmt.Sprintf("job %d: %v", r+1, err))
			continue
		}
		if b.data == nil {
			b.report, b.data = rep, data
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err // interrupted: no result rather than a result full of failures
	}
	b.wall = time.Since(start).Seconds()
	b.cpu = cpuSeconds() - cpu0
	b.rssMiB = selfPeakRSSMiB()
	return b, nil
}

// runChecked runs one job, serializes its report and checks it.
func runChecked(ctx context.Context, pipe *splitmfg.Pipeline, req splitmfg.JobRequest, ds []*splitmfg.Design) (any, []byte, error) {
	rep, err := runBatchJob(ctx, pipe, req, ds)
	if err != nil {
		return nil, nil, err
	}
	data, err := splitmfg.MarshalReport(rep)
	if err != nil {
		return nil, nil, err
	}
	return rep, data, checkReport(rep)
}

// checkReport applies the workload's own output checks: the suite keeps
// the paper's ordering (randomize-correction's proximity CCR below both
// naive-lifted and pin-swapping on the aggregate); the superblue matrix
// reports crouting lists for every row.
func checkReport(rep any) error {
	switch r := rep.(type) {
	case *splitmfg.SuiteReport:
		rc, ok := suiteRow(r, "randomize-correction")
		if !ok || len(rc.Cells) == 0 || !rc.Cells[0].Scored {
			return fmt.Errorf("suite aggregate has no scored randomize-correction row")
		}
		for _, other := range []string{"naive-lifted", "pin-swapping"} {
			o, ok := suiteRow(r, other)
			if !ok || len(o.Cells) == 0 {
				return fmt.Errorf("suite aggregate has no %s row", other)
			}
			if rc.Cells[0].CCRPercent.Mean >= o.Cells[0].CCRPercent.Mean {
				return fmt.Errorf("randomize-correction CCR %.2f%% is not below %s's %.2f%%",
					rc.Cells[0].CCRPercent.Mean, other, o.Cells[0].CCRPercent.Mean)
			}
		}
	case *splitmfg.MatrixReport:
		for _, row := range r.Rows {
			if len(row.Cells) == 0 || row.Cells[0].Metrics["vpins"] <= 0 {
				return fmt.Errorf("matrix row %s has no crouting vpins", row.Defense)
			}
		}
	}
	return nil
}

func suiteRow(r *splitmfg.SuiteReport, defense string) (splitmfg.SuiteRowReport, bool) {
	for _, row := range r.Aggregate {
		if row.Defense == defense {
			return row, true
		}
	}
	return splitmfg.SuiteRowReport{}, false
}

// reportValues extracts a batch report's deterministic numbers: the
// reproduction's quality from the randomize-correction row, and the suite
// cache's counters.
func reportValues(rep any) map[string]float64 {
	q := map[string]float64{}
	switch r := rep.(type) {
	case *splitmfg.SuiteReport:
		if row, ok := suiteRow(r, "randomize-correction"); ok && len(row.Cells) > 0 {
			q["ccr_pct"] = row.Cells[0].CCRPercent.Mean
			q["oer_pct"] = row.Cells[0].OERPercent.Mean
			q["power_overhead_pct"] = row.PowerOHPct.Mean
			q["delay_overhead_pct"] = row.DelayOHPct.Mean
		}
		q["flow.cache_hits"] = float64(r.Cache.Hits)
		q["flow.cache_misses"] = float64(r.Cache.Misses)
	case *splitmfg.MatrixReport:
		for _, row := range r.Rows {
			if row.Defense == "randomize-correction" && len(row.Cells) > 0 {
				q["power_overhead_pct"] = row.PowerOHPct
				q["delay_overhead_pct"] = row.DelayOHPct
				q["crouting_match_pct"] = 100 * row.Cells[0].Metrics["match_in_list_15"]
			}
		}
	}
	return q
}

// cpuSeconds is this process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return rusageCPU(&ru)
}

func rusageCPU(ru *syscall.Rusage) float64 {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// selfPeakRSSMiB is this process's peak resident set so far.
func selfPeakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
