// Package splitmfg reproduces "Raise Your Game for Split Manufacturing:
// Restoring the True Functionality Through BEOL" (Patnaik, Ashraf,
// Knechtel, Sinanoglu — DAC 2018) as a self-contained Go library with a
// public pipeline API.
//
// The root package is the public surface; the implementation lives in
// internal packages. Build a Pipeline with functional options and run the
// paper's flow end to end:
//
//	design, _ := splitmfg.LoadBenchmark("c880")
//	pipe := splitmfg.New(splitmfg.WithSeed(42), splitmfg.WithPPABudget(20))
//	res, _ := pipe.Protect(ctx, design)            // Fig. 2: randomize, P&R, lift, restore
//	sec, _ := pipe.Evaluate(ctx, res.ProtectedLayout()) // proximity attack at M3/M4/M5
//
// Security evaluation is parametric over pluggable attacker engines:
// WithAttackers selects any combination from the registry (Attackers()
// lists it — proximity, crouting, random, greedy), each engine gets its
// own per-layer and averaged report sections, and the first
// assignment-producing engine supplies the headline CCR/OER/HD.
//
// Defenses are pluggable the same way: WithDefenses selects schemes from
// the defense registry (Defenses() lists it — the paper's
// randomize-correction, naive-lifted, and the prior-art baselines), and
// Pipeline.Matrix runs the full defense×attacker cross product behind the
// paper's Tables 4/5, reporting CCR/OER/HD per cell plus each scheme's
// PPA overhead against the unprotected baseline as a deterministic
// MatrixReport.
//
// Protect, Attack, and Evaluate take a context.Context and honor
// cancellation at stage boundaries. WithProgress streams stage-completion
// events with per-stage timings; WithParallelism is the one worker budget
// that fans independent builds and split-layer attacks out over worker
// pools, with per-(layer, attacker) derived RNG seeds, while each build
// places and routes on one goroutine, so reports are byte-identical at
// every parallelism level.
// ProtectReport and SecurityReport are JSON-serializable and shared by the
// CLIs (cmd/smflow, cmd/smattack, cmd/smbench, cmd/smsplit), the
// quickstart example, and the experiment generators; RunExperiment and its sibling functions
// regenerate the paper's tables and figures.
//
// See README.md for the module map and quickstart, and DESIGN.md for the
// system inventory, API invariants, and paper-to-code experiment index.
//
// The root package also carries the benchmark harness (bench_test.go): one
// testing.B benchmark per table and figure of the paper plus the ablation
// benches and the serial-vs-parallel evaluation benchmark, all runnable
// with
//
//	go test -bench=. -benchmem
package splitmfg
