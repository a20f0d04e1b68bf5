package splitmfg

import (
	"context"
	"testing"
)

// BenchmarkSuiteIscasPair measures one small two-benchmark, two-replicate
// suite evaluation end to end — scheduler, shared-baseline cache, defense
// builds, attacker panel, aggregation. CI runs it once (-benchtime=1x) as
// a smoke check; perfbench's iscas-suite workload is the suite path's
// benchmark of record. For a local measurement:
//
//	go test -run XXX -bench SuiteIscasPair -benchtime=3x
func BenchmarkSuiteIscasPair(b *testing.B) {
	var designs []*Design
	for _, name := range []string{"c432", "c880"} {
		d, err := LoadBenchmark(name)
		if err != nil {
			b.Fatal(err)
		}
		designs = append(designs, d)
	}
	pipe := New(
		WithSeed(1),
		WithPatternWords(16),
		WithReplicates(2),
		WithDefenses("randomize-correction", "pin-swapping"),
		WithAttackers("proximity", "random"),
	)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipe.Suite(ctx, designs); err != nil {
			b.Fatal(err)
		}
	}
}
