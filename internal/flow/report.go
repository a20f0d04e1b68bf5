package flow

import (
	"splitmfg/internal/netlist"
	"splitmfg/internal/timing"
)

// PPAReport is the JSON shape of a timing.PPA snapshot.
type PPAReport struct {
	AreaUM2      float64 `json:"area_um2"`
	PowerUW      float64 `json:"power_uw"`
	DelayPS      float64 `json:"delay_ps"`
	WirelengthUM float64 `json:"wirelength_um"`
	Vias         int64   `json:"vias"`
}

func ppaReport(p timing.PPA) PPAReport {
	return PPAReport{
		AreaUM2: p.AreaUM2, PowerUW: p.PowerUW, DelayPS: p.DelayPS,
		WirelengthUM: p.WirelengthUM, Vias: p.Vias,
	}
}

// ProtectReport is the unified, JSON-serializable summary of a Protect
// run, shared by the CLIs, the examples, and internal/report. It carries
// no wall-clock fields, so a fixed seed and configuration marshal to
// byte-identical JSON.
type ProtectReport struct {
	Design        string  `json:"design"`
	Gates         int     `json:"gates"`
	PIs           int     `json:"pis"`
	POs           int     `json:"pos"`
	Seed          int64   `json:"seed"`
	LiftLayer     int     `json:"lift_layer"`
	Swaps         int     `json:"swaps"`
	ErroneousOER  float64 `json:"erroneous_oer"`
	BudgetPercent float64 `json:"budget_percent"`
	AreaOHPct     float64 `json:"area_overhead_percent"`
	PowerOHPct    float64 `json:"power_overhead_percent"`
	DelayOHPct    float64 `json:"delay_overhead_percent"`

	BasePPA  PPAReport `json:"base_ppa"`
	FinalPPA PPAReport `json:"final_ppa"`
}

// Report summarizes the result against the netlist it protected.
func (r *ProtectResult) Report(nl *netlist.Netlist, cfg Config) ProtectReport {
	cfg = cfg.withDefaults()
	return ProtectReport{
		Design:        nl.Name,
		Gates:         nl.NumGates(),
		PIs:           nl.NumPIs(),
		POs:           nl.NumPOs(),
		Seed:          cfg.Seed,
		LiftLayer:     cfg.LiftLayer,
		Swaps:         r.Swaps,
		ErroneousOER:  r.OER,
		BudgetPercent: r.Budget,
		AreaOHPct:     r.AreaOH,
		PowerOHPct:    r.PowerOH,
		DelayOHPct:    r.DelayOH,
		BasePPA:       ppaReport(r.BasePPA),
		FinalPPA:      ppaReport(r.FinalPPA),
	}
}

// AttackReport is the JSON shape of one attacker engine's outcome at one
// split layer. Scored marks engines that proposed an assignment (and thus
// carry CCR/OER/HD); metrics-only engines like crouting report only the
// Metrics map. Metrics keys are engine-specific but stable, and
// encoding/json sorts map keys, so reports stay byte-identical at a fixed
// seed.
type AttackReport struct {
	Attacker   string             `json:"attacker"`
	Scored     bool               `json:"scored"`
	Fragments  int                `json:"fragments,omitempty"`
	Correct    int                `json:"correct,omitempty"`
	CCRPercent float64            `json:"ccr_percent"`
	OERPercent float64            `json:"oer_percent"`
	HDPercent  float64            `json:"hd_percent"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// LayerReport is the JSON shape of one split layer's attack outcome. The
// headline fields track the primary attacker; Attacks carries every
// requested engine's section. Unscored marks a non-vacuous layer where
// every requested engine was metrics-only — its headline CCR/OER/HD are
// not meaningful and the layer is excluded from the report averages.
type LayerReport struct {
	Layer      int            `json:"layer"`
	VPins      int            `json:"vpins"`
	Fragments  int            `json:"fragments"`
	Correct    int            `json:"correct"`
	CCRPercent float64        `json:"ccr_percent"`
	OERPercent float64        `json:"oer_percent"`
	HDPercent  float64        `json:"hd_percent"`
	Vacuous    bool           `json:"vacuous,omitempty"`
	Unscored   bool           `json:"unscored,omitempty"`
	Attacks    []AttackReport `json:"attacks,omitempty"`
}

// AttackerReport is one attacker engine's averages over the non-vacuous
// split layers.
type AttackerReport struct {
	Attacker   string  `json:"attacker"`
	Scored     bool    `json:"scored"`
	Fragments  int     `json:"fragments,omitempty"`
	Correct    int     `json:"correct,omitempty"`
	CCRPercent float64 `json:"ccr_percent"`
	OERPercent float64 `json:"oer_percent"`
	HDPercent  float64 `json:"hd_percent"`
	// LayersRun counts the non-vacuous layers the engine ran on — a
	// metrics-only engine runs without scoring, so this is deliberately
	// NOT named like SecurityReport.LayersScored (which counts layers
	// whose CCR/OER/HD entered the headline averages).
	LayersRun int                `json:"layers_run"`
	Metrics   map[string]float64 `json:"metrics,omitempty"`
}

// SecurityReport is the unified, JSON-serializable summary of a security
// evaluation (the configured attacker engines averaged over split layers).
type SecurityReport struct {
	Design       string           `json:"design"`
	Seed         int64            `json:"seed"`
	SplitLayers  []int            `json:"split_layers"`
	Attackers    []string         `json:"attackers"`
	CCRPercent   float64          `json:"ccr_percent"`
	OERPercent   float64          `json:"oer_percent"`
	HDPercent    float64          `json:"hd_percent"`
	Fragments    int              `json:"fragments"`
	LayersScored int              `json:"layers_scored"`
	PerLayer     []LayerReport    `json:"per_layer"`
	PerAttacker  []AttackerReport `json:"per_attacker,omitempty"`
}

// MatrixCellReport is the JSON shape of one (defense, attacker) cell: one
// attacker's averages against one defense — exactly an AttackerReport, so
// the two shapes can never drift apart.
type MatrixCellReport = AttackerReport

// MatrixRowReport is the JSON shape of one defense row: PPA deltas against
// the unprotected baseline plus one cell per requested attacker. It carries
// no wall-clock fields, so a fixed seed and configuration marshal to
// byte-identical JSON.
type MatrixRowReport struct {
	Defense    string             `json:"defense"`
	Swaps      int                `json:"swaps,omitempty"`
	AreaOHPct  float64            `json:"area_overhead_percent"`
	PowerOHPct float64            `json:"power_overhead_percent"`
	DelayOHPct float64            `json:"delay_overhead_percent"`
	PPA        PPAReport          `json:"ppa"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
	Cells      []MatrixCellReport `json:"cells"`
}

// MatrixReport is the unified, JSON-serializable defense×attacker cross
// matrix (rows = defenses, columns = attackers, cells = CCR/OER/HD averaged
// over the split layers). Serialization is deterministic: rows and cells
// follow request order, metric maps encode with sorted keys, and nothing
// depends on evaluation parallelism.
type MatrixReport struct {
	Design      string            `json:"design"`
	Seed        int64             `json:"seed"`
	SplitLayers []int             `json:"split_layers"`
	Defenses    []string          `json:"defenses"`
	Attackers   []string          `json:"attackers"`
	BasePPA     PPAReport         `json:"base_ppa"`
	Rows        []MatrixRowReport `json:"rows"`
}

// Report converts the matrix to its JSON-serializable form.
func (m MatrixResult) Report(design string, opt MatrixOptions) MatrixReport {
	opt = opt.withDefaults()
	rep := MatrixReport{
		Design:      design,
		Seed:        opt.Seed,
		SplitLayers: append([]int(nil), opt.SplitLayers...),
		Defenses:    append([]string(nil), opt.Defenses...),
		Attackers:   append([]string(nil), opt.Attackers...),
		BasePPA:     ppaReport(m.BasePPA),
	}
	for _, row := range m.Rows {
		rrep := MatrixRowReport{
			Defense: row.Defense, Swaps: row.Swaps,
			AreaOHPct: row.AreaOH, PowerOHPct: row.PowerOH, DelayOHPct: row.DelayOH,
			PPA: ppaReport(row.PPA), Metrics: row.Metrics,
		}
		for _, ar := range row.Security.PerAttacker {
			rrep.Cells = append(rrep.Cells, attackerReport(ar))
		}
		rep.Rows = append(rep.Rows, rrep)
	}
	return rep
}

// DistReport is the JSON shape of a mean ± standard deviation pair.
type DistReport struct {
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
}

func distReport(d Dist, scale float64) DistReport {
	return DistReport{Mean: d.Mean * scale, Std: d.Std * scale}
}

// SuiteCellReport is the JSON shape of one (defense, attacker) suite cell:
// CCR/OER/HD as mean ± std percentages over the aggregated runs.
type SuiteCellReport struct {
	Attacker   string     `json:"attacker"`
	Scored     bool       `json:"scored"`
	CCRPercent DistReport `json:"ccr_percent"`
	OERPercent DistReport `json:"oer_percent"`
	HDPercent  DistReport `json:"hd_percent"`
}

// SuiteRowReport is the JSON shape of one defense's aggregated row. It
// carries no wall-clock fields, so a fixed seed and configuration marshal
// to byte-identical JSON.
type SuiteRowReport struct {
	Defense    string            `json:"defense"`
	Swaps      DistReport        `json:"swaps"`
	AreaOHPct  DistReport        `json:"area_overhead_percent"`
	PowerOHPct DistReport        `json:"power_overhead_percent"`
	DelayOHPct DistReport        `json:"delay_overhead_percent"`
	Cells      []SuiteCellReport `json:"cells"`
}

// SuiteBenchReport is one benchmark's defense rows, aggregated over the
// suite's seed replicates, plus the shared unprotected baseline's PPA.
type SuiteBenchReport struct {
	Benchmark string           `json:"benchmark"`
	BasePPA   PPAReport        `json:"base_ppa"`
	Rows      []SuiteRowReport `json:"rows"`
}

// SuiteReport is the unified, JSON-serializable multi-benchmark,
// multi-seed matrix: per-benchmark sections (mean ± std over replicates)
// plus the cross-benchmark aggregate behind the paper's Tables 4/5 bottom
// lines, and the suite cache's deterministic hit/miss counters.
type SuiteReport struct {
	Seed         int64              `json:"seed"`
	Replicates   int                `json:"replicates"`
	SplitLayers  []int              `json:"split_layers"`
	Benchmarks   []string           `json:"benchmarks"`
	Defenses     []string           `json:"defenses"`
	Attackers    []string           `json:"attackers"`
	PerBenchmark []SuiteBenchReport `json:"per_benchmark"`
	Aggregate    []SuiteRowReport   `json:"aggregate"`
	Cache        CacheStats         `json:"cache"`
}

// suiteRowReport converts one aggregated defense row to its JSON shape
// (security fractions scaled to percentages, overheads already percent).
func suiteRowReport(row SuiteRow) SuiteRowReport {
	rep := SuiteRowReport{
		Defense:    row.Defense,
		Swaps:      distReport(row.Swaps, 1),
		AreaOHPct:  distReport(row.AreaOH, 1),
		PowerOHPct: distReport(row.PowerOH, 1),
		DelayOHPct: distReport(row.DelayOH, 1),
	}
	for _, c := range row.Cells {
		rep.Cells = append(rep.Cells, SuiteCellReport{
			Attacker:   c.Attacker,
			Scored:     c.Scored,
			CCRPercent: distReport(c.CCR, 100),
			OERPercent: distReport(c.OER, 100),
			HDPercent:  distReport(c.HD, 100),
		})
	}
	return rep
}

// Report converts the suite result to its JSON-serializable form. The
// cache counters are folded to their deterministic two-way form — disk
// hits count as misses — so hits mean "repeat key requests" and misses
// mean "first-time key requests", byte-identical whether the run was
// fresh, resumed from a cache dir, or diskless. The raw breakdown stays
// on SuiteResult.Cache.
func (s SuiteResult) Report(opt SuiteOptions) SuiteReport {
	opt.MatrixOptions = opt.withDefaults()
	rep := SuiteReport{
		Seed:        opt.Seed,
		Replicates:  s.Replicates,
		SplitLayers: append([]int(nil), opt.SplitLayers...),
		Defenses:    append([]string(nil), opt.Defenses...),
		Attackers:   append([]string(nil), opt.Attackers...),
		Cache:       CacheStats{Hits: s.Cache.Hits, Misses: s.Cache.Misses + s.Cache.DiskHits},
	}
	for _, b := range opt.Benchmarks {
		rep.Benchmarks = append(rep.Benchmarks, b.Name)
	}
	for _, br := range s.Benches {
		brep := SuiteBenchReport{Benchmark: br.Bench, BasePPA: ppaReport(br.BasePPA)}
		for _, row := range br.Rows {
			brep.Rows = append(brep.Rows, suiteRowReport(row))
		}
		rep.PerBenchmark = append(rep.PerBenchmark, brep)
	}
	for _, row := range s.Aggregate {
		rep.Aggregate = append(rep.Aggregate, suiteRowReport(row))
	}
	return rep
}

// attackerReport converts one attacker's averaged outcome to its JSON
// shape — shared by SecurityReport's per_attacker section and the matrix
// cells.
func attackerReport(ar AttackerResult) AttackerReport {
	return AttackerReport{
		Attacker: ar.Attacker, Scored: ar.Scored,
		Fragments: ar.Fragments, Correct: ar.Correct,
		CCRPercent: ar.CCR * 100, OERPercent: ar.OER * 100, HDPercent: ar.HD * 100,
		LayersRun: ar.Layers, Metrics: ar.Metrics,
	}
}

// Report converts the result to its JSON-serializable form.
func (s SecurityResult) Report(design string, opt EvalOptions) SecurityReport {
	opt = opt.withDefaults()
	rep := SecurityReport{
		Design:       design,
		Seed:         opt.Seed,
		SplitLayers:  append([]int(nil), opt.SplitLayers...),
		Attackers:    append([]string(nil), opt.Attackers...),
		CCRPercent:   s.CCR * 100,
		OERPercent:   s.OER * 100,
		HDPercent:    s.HD * 100,
		Fragments:    s.Protected,
		LayersScored: s.Layers,
	}
	for _, lr := range s.PerLayer {
		lrep := LayerReport{
			Layer: lr.Layer, VPins: lr.VPins, Fragments: lr.Fragments, Correct: lr.Correct,
			CCRPercent: lr.CCR * 100, OERPercent: lr.OER * 100, HDPercent: lr.HD * 100,
			Vacuous: lr.Vacuous, Unscored: !lr.Vacuous && !lr.Scored,
		}
		for _, ao := range lr.Attacks {
			lrep.Attacks = append(lrep.Attacks, AttackReport{
				Attacker: ao.Attacker, Scored: ao.Scored,
				Fragments: ao.Fragments, Correct: ao.Correct,
				CCRPercent: ao.CCR * 100, OERPercent: ao.OER * 100, HDPercent: ao.HD * 100,
				Metrics: ao.Metrics,
			})
		}
		rep.PerLayer = append(rep.PerLayer, lrep)
	}
	for _, ar := range s.PerAttacker {
		rep.PerAttacker = append(rep.PerAttacker, attackerReport(ar))
	}
	return rep
}
