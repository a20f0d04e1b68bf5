package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

// benchFile is the part of BENCHMARK.json compare reads.
type benchFile struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runCompare prints, per (workload, metric), the medians and quartiles of
// two result sets, the share of same-seed pairs the new set won, and a
// verdict against the metric's bound. It needs only the standard library.
func runCompare(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the metrics and their bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("compare takes two result directories, OLD and NEW")
	}
	data, err := os.ReadFile(*benchPath)
	if err != nil {
		return err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("%s: %w", *benchPath, err)
	}
	old, err := loadRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	cur, err := loadRecords(fs.Arg(1))
	if err != nil {
		return err
	}
	printStamps(stdout, "old", old)
	printStamps(stdout, "new", cur)
	fmt.Fprintf(stdout, "%-17s %-38s %-30s %-30s %-7s %s\n", "workload", "metric", "old median [q1, q3]", "new median [q1, q3]", "won", "verdict")
	for _, row := range compareRows(bf, old, cur) {
		fmt.Fprintf(stdout, "%-17s %-38s %-30s %-30s %-7s %s\n", row.workload, row.metric,
			fmtQuartiles(row.old), fmtQuartiles(row.cur), fmt.Sprintf("%d/%d", row.won, row.pairs), row.verdict)
	}
	return nil
}

// compareRow is one (workload, metric) comparison.
type compareRow struct {
	workload, metric string
	old, cur         []float64
	won, pairs       int
	verdict          string
}

// compareRows compares every metric of bf present in both sets, workload
// by workload. Records pair up by seed (the first record of a seed on each
// side); traced records are compared on the per-layer metrics, untraced on
// the end-to-end ones.
func compareRows(bf benchFile, old, cur []record) []compareRow {
	var rows []compareRow
	for _, w := range workloadNames(old, cur) {
		for _, traced := range []bool{false, true} {
			defs := bf.EndToEnd
			if traced {
				defs = bf.PerLayer
			}
			for _, m := range defs {
				o, opair := metricValues(old, w, traced, m.Name)
				c, cpair := metricValues(cur, w, traced, m.Name)
				if len(o) == 0 || len(c) == 0 {
					continue
				}
				row := compareRow{workload: w, metric: m.Name, old: o, cur: c}
				//smlint:ordered counts pairs and wins; integer counts do not depend on visit order
				for seed, ov := range opair {
					if cv, ok := cpair[seed]; ok {
						row.pairs++
						if better(m.Better, cv, ov) {
							row.won++
						}
					}
				}
				row.verdict = verdict(m, o, c, row.won, row.pairs)
				rows = append(rows, row)
			}
		}
	}
	return rows
}

// minPairs is how many same-seed pairs a gain needs.
const minPairs = 10

// verdict applies the benchmark's rules: a regression is a new median
// worse than the old by more than the bound; a gain needs at least
// minPairs pairs, the new side winning nine tenths of them, and the
// medians differing by more than the old side's interquartile distance; a
// metric whose own spread exceeds its bound is unresolved.
func verdict(m benchMetric, old, cur []float64, won, pairs int) string {
	om, cm := median(old), median(cur)
	q1, _, q3 := quartiles(old)
	switch {
	case m.Bound > 0 && better(m.Better, om, cm) && math.Abs(cm-om) > m.Bound*math.Abs(om):
		return fmt.Sprintf("regression (%+.1f%%, bound %.0f%%)", 100*(cm-om)/om, 100*m.Bound)
	case pairs >= minPairs && float64(won) >= 0.9*float64(pairs) && math.Abs(cm-om) > q3-q1:
		return fmt.Sprintf("gain (%+.1f%%)", 100*(cm-om)/om)
	case m.Bound > 0 && spread(old) > m.Bound:
		return "unresolved (spread above bound)"
	case m.Bound > 0:
		return "within bound"
	}
	return "-"
}

// better reports whether a is better than b in the metric's direction.
func better(direction string, a, b float64) bool {
	if direction == "higher" {
		return a > b
	}
	return a < b
}

func workloadNames(sets ...[]record) []string {
	seen := map[string]bool{}
	for _, set := range sets {
		for _, r := range set {
			seen[r.Workload] = true
		}
	}
	return sortedKeys(seen)
}

// metricValues collects one metric over a workload's records, and the
// value per seed for pairing.
func metricValues(recs []record, workload string, traced bool, name string) ([]float64, map[int64]float64) {
	var xs []float64
	bySeed := map[int64]float64{}
	for _, r := range recs {
		if r.Workload != workload || r.Trace != traced {
			continue
		}
		m, ok := r.Result.Metrics[name]
		if !ok {
			continue
		}
		xs = append(xs, m.Value)
		if _, dup := bySeed[r.Seed]; !dup {
			bySeed[r.Seed] = m.Value
		}
	}
	return xs, bySeed
}

func fmtQuartiles(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", q2, q1, q3, len(xs))
}

// printStamps summarizes the machines and code a result set came from.
func printStamps(w io.Writer, label string, recs []record) {
	kinds := map[string]int{}
	for _, r := range recs {
		s := r.Stamp
		kinds[fmt.Sprintf("%s GOMAXPROCS=%d nproc=%d cpu=%q commit=%s source=%s",
			s.GoVersion, s.GOMAXPROCS, s.NumCPU, s.CPUModel, s.Commit, s.SourceHash)]++
	}
	for _, k := range sortedKeys(kinds) {
		fmt.Fprintf(w, "%s: %d runs on %s\n", label, kinds[k], k)
	}
}
